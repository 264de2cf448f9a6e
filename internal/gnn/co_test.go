package gnn

import (
	"math"
	"math/rand"
	"testing"

	"privim/internal/autodiff"
	"privim/internal/graph"
	"privim/internal/nn"
	"privim/internal/tensor"
)

func TestMaxCoverLossExtremes(t *testing.T) {
	g := tinyGraph()
	n := g.NumNodes()

	// x = 0: nothing covered, loss = n.
	tp := autodiff.NewTape()
	zero := tp.Leaf(tensor.New(n, 1))
	l0 := MaxCoverLoss(tp, g, zero, 2, 1)
	if math.Abs(l0.Value.Data[0]-float64(n)) > 1e-9 {
		t.Fatalf("loss at x=0 = %v, want %d", l0.Value.Data[0], n)
	}

	// Hub chosen with certainty: hub covers itself + 4 leaves = everything
	// except nothing (node 0 covers all 5 nodes of the star). Coverage
	// term ≈ 0 for covered nodes... leaves are covered by hub (in-neighbor),
	// hub covered by itself.
	tp2 := autodiff.NewTape()
	x := tensor.New(n, 1)
	x.Data[0] = 1 - 1e-9
	hub := tp2.Leaf(x)
	l1 := MaxCoverLoss(tp2, g, hub, 2, 1)
	if l1.Value.Data[0] > 0.01 {
		t.Fatalf("loss with hub chosen = %v, want ≈0", l1.Value.Data[0])
	}

	// Cardinality penalty activates above k.
	tp3 := autodiff.NewTape()
	all := tensor.New(n, 1)
	all.Fill(0.9)
	over := tp3.Leaf(all)
	l2 := MaxCoverLoss(tp3, g, over, 1, 10)
	// Σx = 4.5, k=1 ⇒ penalty 10·3.5 = 35 dominates.
	if l2.Value.Data[0] < 35 {
		t.Fatalf("cardinality penalty missing: loss = %v", l2.Value.Data[0])
	}
}

func TestMaxCoverLossGradCheck(t *testing.T) {
	g := tinyGraph()
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(4))
	raw := tensor.New(n, 1)
	raw.RandUniform(0.4, rng)
	for i := range raw.Data {
		raw.Data[i] += 0.5 // keep x in (0.1, 0.9), away from Log's floor
	}
	eval := func() float64 {
		tp := autodiff.NewTape()
		x := tp.Leaf(raw.Clone())
		return MaxCoverLoss(tp, g, x, 2, 1.5).Value.Data[0]
	}
	tp := autodiff.NewTape()
	x := tp.Leaf(raw)
	loss := MaxCoverLoss(tp, g, x, 2, 1.5)
	tp.Backward(loss)
	const eps = 1e-6
	for i := range raw.Data {
		orig := raw.Data[i]
		raw.Data[i] = orig + eps
		fp := eval()
		raw.Data[i] = orig - eps
		fm := eval()
		raw.Data[i] = orig
		numeric := (fp - fm) / (2 * eps)
		if d := math.Abs(numeric - x.Grad.Data[i]); d > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("grad[%d]: analytic %v vs numeric %v", i, x.Grad.Data[i], numeric)
		}
	}
}

func TestGreedyMaxCover(t *testing.T) {
	// Two stars: greedy must pick both hubs.
	b := graph.NewBuilder(10, true)
	for v := 1; v <= 5; v++ {
		b.AddEdge(0, graph.NodeID(v), 1)
	}
	for v := 7; v <= 9; v++ {
		b.AddEdge(6, graph.NodeID(v), 1)
	}
	g := b.Build()
	chosen := GreedyMaxCover(g, 2)
	if len(chosen) != 2 || chosen[0] != 0 || chosen[1] != 6 {
		t.Fatalf("greedy chose %v, want [0 6]", chosen)
	}
	if got := CoverageValue(g, chosen); got != 10 {
		t.Fatalf("coverage = %d, want 10", got)
	}
	// k larger than useful set.
	many := GreedyMaxCover(g, 100)
	if len(many) != 10 {
		t.Fatalf("greedy with huge k chose %d nodes", len(many))
	}
}

func TestMaxCutLoss(t *testing.T) {
	// Single edge: best split puts endpoints on opposite sides.
	gb := graph.NewBuilder(2, true)
	gb.AddEdge(0, 1, 1)
	g := gb.Build()
	tp := autodiff.NewTape()
	x := tp.Leaf(tensor.FromSlice(2, 1, []float64{1, 0}))
	l := MaxCutLoss(tp, g, x)
	if math.Abs(l.Value.Data[0]+1) > 1e-12 {
		t.Fatalf("cut loss for perfect split = %v, want -1", l.Value.Data[0])
	}
	// Same side: loss 0.
	tp2 := autodiff.NewTape()
	same := tp2.Leaf(tensor.FromSlice(2, 1, []float64{1, 1}))
	l2 := MaxCutLoss(tp2, g, same)
	if math.Abs(l2.Value.Data[0]) > 1e-12 {
		t.Fatalf("cut loss same side = %v, want 0", l2.Value.Data[0])
	}
	// Edgeless graph: zero loss, no panic.
	tp3 := autodiff.NewTape()
	empty := graph.NewBuilder(3, true).Build()
	z := tp3.Leaf(tensor.New(3, 1))
	if MaxCutLoss(tp3, empty, z).Value.Data[0] != 0 {
		t.Fatal("edgeless cut loss should be 0")
	}
}

func TestCutValue(t *testing.T) {
	b := graph.NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	if got := CutValue(g, []bool{true, false, true, false}); got != 3 {
		t.Fatalf("alternating cut = %d, want 3", got)
	}
	if got := CutValue(g, []bool{true, true, true, true}); got != 0 {
		t.Fatalf("one-side cut = %d, want 0", got)
	}
}

// Training a GNN with MaxCutLoss on a bipartite-ish graph should find a
// large cut.
func TestMaxCutTraining(t *testing.T) {
	// Complete bipartite K3,3: max cut = 9 with the bipartition.
	b := graph.NewBuilder(6, false)
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
		}
	}
	g := b.Build()
	rng := rand.New(rand.NewSource(6))
	m, err := New(Config{Kind: GCN, InputDim: 2, HiddenDim: 8, Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rng)
	x := tensor.New(6, 2)
	x.RandUniform(1, rng)
	opt := nn.NewAdam(m.Params, 0.05)
	grads := nn.NewGrads(m.Params)
	for epoch := 0; epoch < 300; epoch++ {
		tp := autodiff.NewTape()
		bound := nn.Bind(tp, m.Params)
		scores := m.Forward(tp, bound, g, x, m.NewPrep(g))
		loss := MaxCutLoss(tp, g, scores)
		tp.Backward(loss)
		nn.Collect(bound, grads)
		opt.Step(grads)
	}
	scores := score(m, g, x)
	side := make([]bool, 6)
	for v, s := range scores {
		side[v] = s > 0.5
	}
	if got := CutValue(g, side); got < 8 {
		t.Fatalf("learned cut = %d, want >= 8 of 9", got)
	}
}

func TestMaxCoverLossPanics(t *testing.T) {
	g := tinyGraph()
	tp := autodiff.NewTape()
	x := tp.Leaf(tensor.New(g.NumNodes(), 1))
	for _, fn := range []func(){
		func() { MaxCoverLoss(tp, g, x, 0, 1) },
		func() { MaxCoverLoss(tp, g, x, 1, -1) },
		func() { MaxCoverLoss(tp, g, tp.Leaf(tensor.New(2, 1)), 1, 1) },
		func() { MaxCutLoss(tp, g, tp.Leaf(tensor.New(2, 1))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
