package gnn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"privim/internal/autodiff"
	"privim/internal/graph"
	"privim/internal/nn"
	"privim/internal/tensor"
)

// score is Model.Score under context.Background, which never errors.
func score(m *Model, g *graph.Graph, x *tensor.Matrix) []float64 {
	s, _ := m.Score(context.Background(), g, x)
	return s
}

// tinyGraph: star with hub 0 pointing at 1..4, plus a back edge.
func tinyGraph() *graph.Graph {
	b := graph.NewBuilder(5, true)
	for v := 1; v < 5; v++ {
		b.AddEdge(0, graph.NodeID(v), 1)
	}
	b.AddEdge(1, 0, 0.5)
	return b.Build()
}

func tinyFeatures(g *graph.Graph, dim int, rng *rand.Rand) *tensor.Matrix {
	x := tensor.New(g.NumNodes(), dim)
	x.RandUniform(1, rng)
	return x
}

func TestNewModelValidation(t *testing.T) {
	if _, err := New(Config{Kind: "bogus", InputDim: 4, HiddenDim: 8, Layers: 2}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := New(Config{Kind: GCN, InputDim: 0, HiddenDim: 8, Layers: 2}); err == nil {
		t.Fatal("expected error for zero input dim")
	}
}

func TestAllKindsForwardShapeAndRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := tinyGraph()
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m, err := New(Config{Kind: kind, InputDim: 3, HiddenDim: 8, Layers: 2})
			if err != nil {
				t.Fatal(err)
			}
			m.Init(rng)
			x := tinyFeatures(g, 3, rng)
			scores := score(m, g, x)
			if len(scores) != g.NumNodes() {
				t.Fatalf("scores length %d, want %d", len(scores), g.NumNodes())
			}
			for i, s := range scores {
				if s <= 0 || s >= 1 || math.IsNaN(s) {
					t.Fatalf("score[%d] = %v outside (0,1)", i, s)
				}
			}
		})
	}
}

// Every architecture must produce exact gradients end to end (finite
// difference check over all parameters on a small graph).
func TestAllKindsGradCheck(t *testing.T) {
	g := tinyGraph()
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			m, err := New(Config{Kind: kind, InputDim: 2, HiddenDim: 3, Layers: 2})
			if err != nil {
				t.Fatal(err)
			}
			m.Init(rng)
			x := tinyFeatures(g, 2, rng)

			eval := func() float64 {
				tp := autodiff.NewTape()
				bound := nn.Bind(tp, m.Params)
				out := m.Forward(tp, bound, g, x, m.NewPrep(g))
				return IMLoss(tp, g, out, LossConfig{Steps: 2, Lambda: 0.3}, autodiff.InAdjacency(g)).Value.Data[0]
			}

			tp := autodiff.NewTape()
			bound := nn.Bind(tp, m.Params)
			out := m.Forward(tp, bound, g, x, m.NewPrep(g))
			loss := IMLoss(tp, g, out, LossConfig{Steps: 2, Lambda: 0.3}, autodiff.InAdjacency(g))
			tp.Backward(loss)
			grads := nn.NewGrads(m.Params)
			nn.Collect(bound, grads)

			const eps = 1e-6
			const tol = 2e-4
			for pi, p := range m.Params.All() {
				for k := range p.Value.Data {
					orig := p.Value.Data[k]
					p.Value.Data[k] = orig + eps
					fp := eval()
					p.Value.Data[k] = orig - eps
					fm := eval()
					p.Value.Data[k] = orig
					numeric := (fp - fm) / (2 * eps)
					analytic := grads.Mats()[pi].Data[k]
					if d := math.Abs(numeric - analytic); d > tol*(1+math.Abs(numeric)) {
						t.Fatalf("%s param %s[%d]: analytic %v vs numeric %v", kind, p.Name, k, analytic, numeric)
					}
				}
			}
		})
	}
}

func TestIMLossValidation(t *testing.T) {
	g := tinyGraph()
	tp := autodiff.NewTape()
	bad := tp.Leaf(tensor.New(2, 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for wrong score shape")
			}
		}()
		IMLoss(tp, g, bad, LossConfig{Steps: 1}, autodiff.InAdjacency(g))
	}()
	ok := tp.Leaf(tensor.New(g.NumNodes(), 1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for steps < 1")
			}
		}()
		IMLoss(tp, g, ok, LossConfig{Steps: 0}, autodiff.InAdjacency(g))
	}()
}

func TestIMLossExtremes(t *testing.T) {
	g := tinyGraph()
	n := g.NumNodes()

	// All-zero seed probabilities: coverage term = n, penalty = 0.
	tp := autodiff.NewTape()
	zero := tp.Leaf(tensor.New(n, 1))
	l0 := IMLoss(tp, g, zero, LossConfig{Steps: 1, Lambda: 0.5}, autodiff.InAdjacency(g))
	if math.Abs(l0.Value.Data[0]-float64(n)) > 1e-9 {
		t.Fatalf("loss at x=0 is %v, want %d", l0.Value.Data[0], n)
	}

	// All-one seed probabilities: leaves 1..4 have one in-arc of weight 1
	// (p̂ = tanh 1); the hub's only in-arc has weight 0.5 (p̂ = tanh 0.5);
	// the penalty adds λ·n.
	tp2 := autodiff.NewTape()
	onesM := tensor.New(n, 1)
	onesM.Fill(1)
	one := tp2.Leaf(onesM)
	l1 := IMLoss(tp2, g, one, LossConfig{Steps: 1, Lambda: 0.5}, autodiff.InAdjacency(g))
	want := 4*(1-math.Tanh(1)) + (1 - math.Tanh(0.5)) + 0.5*float64(n)
	if math.Abs(l1.Value.Data[0]-want) > 1e-9 {
		t.Fatalf("loss at x=1 is %v, want %v", l1.Value.Data[0], want)
	}
}

func TestIMLossSeedingHubHelps(t *testing.T) {
	// Putting seed mass on the hub (which reaches everyone) must beat
	// putting the same mass on a leaf.
	g := tinyGraph()
	n := g.NumNodes()
	lossFor := func(seedIdx int) float64 {
		tp := autodiff.NewTape()
		x := tensor.New(n, 1)
		x.Data[seedIdx] = 0.9
		s := tp.Leaf(x)
		return IMLoss(tp, g, s, LossConfig{Steps: 1, Lambda: 0.1}, autodiff.InAdjacency(g)).Value.Data[0]
	}
	hub, leaf := lossFor(0), lossFor(3)
	if hub >= leaf {
		t.Fatalf("hub seeding loss %v should be < leaf seeding loss %v", hub, leaf)
	}
}

func TestExpectedSpreadUpperBound(t *testing.T) {
	g := tinyGraph()
	scores := make([]float64, g.NumNodes())
	scores[0] = 1 // hub is a certain seed
	got := ExpectedSpreadUpperBound(g, scores, 1)
	// Hub active; each leaf activated with p = tanh(1·1) ≈ 0.7616.
	want := 1 + 4*math.Tanh(1)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("upper bound = %v, want %v", got, want)
	}
	// More steps cannot decrease the bound.
	if got2 := ExpectedSpreadUpperBound(g, scores, 3); got2 < got-1e-12 {
		t.Fatalf("bound decreased with more steps: %v < %v", got2, got)
	}
}

// Training with the IM loss on the star graph must rank the hub first.
func TestTrainingRanksHubFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := tinyGraph()
	m, err := New(Config{Kind: GCN, InputDim: 2, HiddenDim: 8, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rng)
	// Features: normalized out-degree and bias.
	x := tensor.New(g.NumNodes(), 2)
	for v := 0; v < g.NumNodes(); v++ {
		x.Set(v, 0, float64(g.OutDegree(graph.NodeID(v)))/4)
		x.Set(v, 1, 1)
	}
	opt := nn.NewAdam(m.Params, 0.02)
	grads := nn.NewGrads(m.Params)
	for epoch := 0; epoch < 200; epoch++ {
		tp := autodiff.NewTape()
		bound := nn.Bind(tp, m.Params)
		out := m.Forward(tp, bound, g, x, m.NewPrep(g))
		loss := IMLoss(tp, g, out, LossConfig{Steps: 1, Lambda: 0.5}, autodiff.InAdjacency(g))
		tp.Backward(loss)
		nn.Collect(bound, grads)
		opt.Step(grads)
	}
	scores := score(m, g, x)
	// Node 1 also has outgoing influence (back edge to the hub), so the
	// clean comparison is hub vs the pure leaves 2..4.
	for v := 2; v < len(scores); v++ {
		if scores[0] <= scores[v] {
			t.Fatalf("hub score %v not above leaf %d score %v after training", scores[0], v, scores[v])
		}
	}
}

func TestModelParamCounts(t *testing.T) {
	// 3-layer GRAT with 32 hidden units on 4-dim input (the paper's config)
	// must register per-layer W, attn, b plus readout.
	m, err := New(Config{Kind: GRAT, InputDim: 4, HiddenDim: 32, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := (4*32 + 64*1 + 32) + 2*(32*32+64*1+32) + (32 + 4 + 1)
	if got := m.Params.NumParams(); got != want {
		t.Fatalf("GRAT params = %d, want %d", got, want)
	}
}

func TestMultiHeadAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := tinyGraph()
	for _, kind := range []Kind{GAT, GRAT} {
		m, err := New(Config{Kind: kind, InputDim: 2, HiddenDim: 4, Layers: 2, Heads: 3})
		if err != nil {
			t.Fatal(err)
		}
		m.Init(rng)
		// 3 attention vectors per layer.
		for l := 0; l < 2; l++ {
			for h := 0; h < 3; h++ {
				if m.Params.Get(hname(l, h)) == nil {
					t.Fatalf("%s missing head param %s", kind, hname(l, h))
				}
			}
		}
		x := tinyFeatures(g, 2, rng)
		scores := score(m, g, x)
		for i, s := range scores {
			if s <= 0 || s >= 1 || math.IsNaN(s) {
				t.Fatalf("%s heads=3 score[%d] = %v", kind, i, s)
			}
		}
	}
	if _, err := New(Config{Kind: GAT, InputDim: 2, HiddenDim: 4, Layers: 1, Heads: -1}); err == nil {
		t.Fatal("expected error for negative heads")
	}
}

// Multi-head gradients must stay exact.
func TestMultiHeadGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := tinyGraph()
	m, err := New(Config{Kind: GRAT, InputDim: 2, HiddenDim: 3, Layers: 1, Heads: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rng)
	x := tinyFeatures(g, 2, rng)
	eval := func() float64 {
		tp := autodiff.NewTape()
		bound := nn.Bind(tp, m.Params)
		out := m.Forward(tp, bound, g, x, m.NewPrep(g))
		return IMLoss(tp, g, out, LossConfig{Steps: 1, Lambda: 0.2}, autodiff.InAdjacency(g)).Value.Data[0]
	}
	tp := autodiff.NewTape()
	bound := nn.Bind(tp, m.Params)
	out := m.Forward(tp, bound, g, x, m.NewPrep(g))
	loss := IMLoss(tp, g, out, LossConfig{Steps: 1, Lambda: 0.2}, autodiff.InAdjacency(g))
	tp.Backward(loss)
	grads := nn.NewGrads(m.Params)
	nn.Collect(bound, grads)
	const eps = 1e-6
	for pi, p := range m.Params.All() {
		for k := range p.Value.Data {
			orig := p.Value.Data[k]
			p.Value.Data[k] = orig + eps
			fp := eval()
			p.Value.Data[k] = orig - eps
			fm := eval()
			p.Value.Data[k] = orig
			numeric := (fp - fm) / (2 * eps)
			analytic := grads.Mats()[pi].Data[k]
			if d := math.Abs(numeric - analytic); d > 2e-4*(1+math.Abs(numeric)) {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, k, analytic, numeric)
			}
		}
	}
}

func TestForwardShapePanic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := tinyGraph()
	m, _ := New(Config{Kind: GCN, InputDim: 3, HiddenDim: 4, Layers: 1})
	m.Init(rng)
	tp := autodiff.NewTape()
	bound := nn.Bind(tp, m.Params)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong feature dim")
		}
	}()
	m.Forward(tp, bound, g, tensor.New(g.NumNodes(), 2), m.NewPrep(g))
}

// ExpectedSpreadUpperBound returns the Theorem 2 / Eq. 4 upper bound
// P̂_j(S) on total influence spread for a fixed (non-differentiable) score
// vector, evaluated with the same φ as IMLoss.
func ExpectedSpreadUpperBound(g *graph.Graph, scores []float64, steps int) float64 {
	if steps < 1 {
		panic("gnn: ExpectedSpreadUpperBound steps < 1")
	}
	n := g.NumNodes()
	act := append([]float64(nil), scores...)
	survival := make([]float64, n)
	for u := range survival {
		survival[u] = 1 - scores[u]
	}
	next := make([]float64, n)
	for i := 0; i < steps; i++ {
		for u := 0; u < n; u++ {
			sum := 0.0
			for _, a := range g.In(graph.NodeID(u)) {
				sum += a.Weight * act[a.To]
			}
			next[u] = math.Tanh(sum)
		}
		for u := 0; u < n; u++ {
			survival[u] *= 1 - next[u]
		}
		act, next = next, act
	}
	total := 0.0
	for _, s := range survival {
		total += 1 - s
	}
	return total
}
