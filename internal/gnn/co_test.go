package gnn

import (
	"math"
	"math/rand"
	"testing"

	"privim/internal/autodiff"
	"privim/internal/graph"
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

func TestMaxCoverLossPanics(t *testing.T) {
	g := tinyGraph()
	tp := autodiff.NewTape()
	x := tp.Leaf(tensor.New(g.NumNodes(), 1))
	for _, fn := range []func(){
		func() { MaxCoverLoss(tp, g, x, 0, 1) },
		func() { MaxCoverLoss(tp, g, x, 1, -1) },
		func() { MaxCoverLoss(tp, g, tp.Leaf(tensor.New(2, 1)), 1, 1) },
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
