package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"privim/internal/autodiff"
	"privim/internal/graph"
	"privim/internal/nn"
	"privim/internal/tensor"
)

// chainForward is Forward with every GAT/GRAT layer built from the op
// chain that autodiff.Attention fuses. It is the oracle the fused layer
// must match bit for bit.
func chainForward(m *Model, tp *autodiff.Tape, bound []*autodiff.Node, g *graph.Graph, x *tensor.Matrix) *autodiff.Node {
	p := m.NewPrep(g)
	dst, src := p.dst, p.src
	seg := dst
	if m.Cfg.Kind == GRAT {
		seg = src
	}
	n := g.NumNodes()
	h := tp.Leaf(x)
	for l := 0; l < m.Cfg.Layers; l++ {
		refs := m.layers[l]
		wh := autodiff.MatMul(h, bound[refs.w])
		hd := autodiff.GatherRows(wh, dst)
		hs := autodiff.GatherRows(wh, src)
		cat := autodiff.ConcatCols(hd, hs)
		var agg *autodiff.Node
		for head := 0; head < m.Cfg.Heads; head++ {
			e := autodiff.MatMul(cat, bound[refs.attn+head])
			e = autodiff.LeakyReLU(e, m.Cfg.LeakySlope)
			alpha := autodiff.SegmentSoftmax(e, seg, n)
			msg := autodiff.MulColBroadcast(hs, alpha)
			headAgg := autodiff.ScatterAddRows(msg, dst, n)
			if agg == nil {
				agg = headAgg
			} else {
				agg = autodiff.Add(agg, headAgg)
			}
		}
		if m.Cfg.Heads > 1 {
			agg = autodiff.Scale(agg, 1/float64(m.Cfg.Heads))
		}
		agg = autodiff.AddRowBroadcast(agg, bound[refs.b])
		h = autodiff.ReLU(agg)
	}
	skip := autodiff.ConcatCols(h, tp.Leaf(x))
	logits := autodiff.MatMul(skip, bound[m.readoutW])
	logits = autodiff.AddRowBroadcast(logits, bound[m.readoutB])
	return autodiff.Sigmoid(logits)
}

// messyGraph is a random directed graph whose last quarter of nodes is
// isolated, with self-arcs and parallel arcs among the rest.
func messyGraph(n, arcs int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n, true)
	live := n - n/4
	for i := 0; i < arcs; i++ {
		u := graph.NodeID(rng.Intn(live))
		v := graph.NodeID(rng.Intn(live))
		switch rng.Intn(8) {
		case 0:
			v = u // self-arc
		case 1:
			b.AddEdge(u, v, rng.Float64()) // parallel arc
		}
		b.AddEdge(u, v, rng.Float64())
	}
	return b.Build()
}

// lossAndGrads runs forward, IMLoss and backward, and returns the scores,
// the loss and every parameter gradient.
func lossAndGrads(m *Model, g *graph.Graph, x *tensor.Matrix,
	forward func(*autodiff.Tape, []*autodiff.Node) *autodiff.Node) ([]float64, float64, *nn.Grads) {
	tp := autodiff.NewTape()
	bound := nn.Bind(tp, m.Params)
	out := forward(tp, bound)
	loss := IMLoss(tp, g, out, LossConfig{Steps: 2, Lambda: 0.3}, autodiff.InAdjacency(g))
	tp.Backward(loss)
	grads := nn.NewGrads(m.Params)
	nn.Collect(bound, grads)
	return append([]float64(nil), out.Value.Data...), loss.Value.Data[0], grads
}

// firstBitDiff returns the first index where a and b (equal lengths)
// differ in any bit, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAttentionMatchesChainBitForBit checks the fused attention layer
// against the unfused chain under IMLoss: scores, loss and every
// parameter gradient must be bit-identical, for GAT and GRAT with one and
// three heads. The larger case crosses the GEMM's k-block and parallel
// thresholds on the chain side.
func TestAttentionMatchesChainBitForBit(t *testing.T) {
	cases := []struct {
		n, arcs, in, hidden, layers int
	}{
		{12, 20, 3, 5, 3},
		{40, 150, 4, 8, 2},
		{400, 1800, 3, 70, 1},
	}
	for _, kind := range []Kind{GAT, GRAT} {
		for _, heads := range []int{1, 3} {
			for ci, c := range cases {
				t.Run(fmt.Sprintf("%s/heads%d/case%d", kind, heads, ci), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*ci + 10*heads + len(kind))))
					g := messyGraph(c.n, c.arcs, rng)
					m, err := New(Config{Kind: kind, InputDim: c.in, HiddenDim: c.hidden, Layers: c.layers, Heads: heads})
					if err != nil {
						t.Fatal(err)
					}
					m.Init(rng)
					x := tinyFeatures(g, c.in, rng)

					fusedOut, fusedLoss, fusedGrads := lossAndGrads(m, g, x, func(tp *autodiff.Tape, b []*autodiff.Node) *autodiff.Node {
						return m.Forward(tp, b, g, x, m.NewPrep(g))
					})
					chainOut, chainLoss, chainGrads := lossAndGrads(m, g, x, func(tp *autodiff.Tape, b []*autodiff.Node) *autodiff.Node {
						return chainForward(m, tp, b, g, x)
					})
					if i := firstBitDiff(fusedOut, chainOut); i >= 0 {
						t.Fatalf("score[%d]: fused %v, chain %v", i, fusedOut[i], chainOut[i])
					}
					if math.Float64bits(fusedLoss) != math.Float64bits(chainLoss) {
						t.Fatalf("loss: fused %v, chain %v", fusedLoss, chainLoss)
					}
					for pi, p := range m.Params.All() {
						f, ch := fusedGrads.Mats()[pi].Data, chainGrads.Mats()[pi].Data
						if i := firstBitDiff(f, ch); i >= 0 {
							t.Fatalf("grad %s[%d]: fused %v, chain %v", p.Name, i, f[i], ch[i])
						}
					}
				})
			}
		}
	}
}

// TestConcurrentScoreMatchesSerial scores one attention model from
// several goroutines at once, as concurrent serve queries do. Every
// answer must equal the serial one; under -race this also checks that
// the op's state stays on each call's own tape.
func TestConcurrentScoreMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := messyGraph(80, 300, rng)
	m, err := New(Config{Kind: GRAT, InputDim: 3, HiddenDim: 6, Layers: 2, Heads: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rng)
	x := tinyFeatures(g, 3, rng)
	want := score(m, g, x)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if i := firstBitDiff(score(m, g, x), want); i >= 0 {
					t.Errorf("concurrent score[%d] differs from the serial one", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
