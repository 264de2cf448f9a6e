package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privim/internal/graph"
)

// Theorem 2 (via Lemma 7 / Boole's inequality): the message-passing
// aggregate min(Σ w·x, 1) upper-bounds the exact 1-step activation
// probability 1 − Π(1 − w·x), for every node, on every graph and every
// activation vector.
func TestTheorem2BooleBoundHolds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// A random multigraph with random influence weights; activations
		// in [0,1].
		b := graph.NewBuilder(25, true)
		for i := 0; i < 80; i++ {
			if u, v := graph.NodeID(rng.Intn(25)), graph.NodeID(rng.Intn(25)); u != v {
				b.AddEdge(u, v, rng.Float64())
			}
		}
		gw := b.Build()
		active := make([]float64, 25)
		for i := range active {
			active[i] = rng.Float64()
		}
		bound := BooleActivationBound(gw, active)
		exact := ExactOneStepActivation(gw, active)
		for u := range bound {
			if bound[u] < exact[u]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem2BoundTightForSingleNeighbor(t *testing.T) {
	// With one in-neighbor the Boole bound is exact: Σ = 1 − (1 − w·x).
	b := graph.NewBuilder(2, true)
	b.AddEdge(0, 1, 0.35)
	g := b.Build()
	active := []float64{0.8, 0}
	bound := BooleActivationBound(g, active)
	exact := ExactOneStepActivation(g, active)
	if math.Abs(bound[1]-exact[1]) > 1e-12 {
		t.Fatalf("single-neighbor bound %v != exact %v", bound[1], exact[1])
	}
	if math.Abs(bound[1]-0.28) > 1e-12 {
		t.Fatalf("bound = %v, want 0.28", bound[1])
	}
}

func TestTheorem2BoundClampsAtOne(t *testing.T) {
	// Many strong in-neighbors: the sum exceeds 1 and must clamp.
	b := graph.NewBuilder(4, true)
	for v := 1; v < 4; v++ {
		b.AddEdge(graph.NodeID(v), 0, 0.9)
	}
	g := b.Build()
	active := []float64{0, 1, 1, 1}
	bound := BooleActivationBound(g, active)
	if bound[0] != 1 {
		t.Fatalf("bound = %v, want clamp at 1", bound[0])
	}
	exact := ExactOneStepActivation(g, active)
	if exact[0] >= 1 || exact[0] <= 0.99 {
		t.Fatalf("exact = %v, want 1 − 0.1³", exact[0])
	}
}

func TestBooleBoundValidation(t *testing.T) {
	g := graph.NewBuilder(3, true).Build()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong activation length")
		}
	}()
	BooleActivationBound(g, []float64{1})
}

// BooleActivationBound returns, for every node, the Theorem 2 / Lemma 7
// upper bound on the 1-step IC activation probability with the exact
// Boole-inequality form φ(x) = min(x, 1):
//
//	p̂(u) = min(Σ_{v∈N(u)} w_vu·x_v, 1) ≥ 1 − Π_{v∈N(u)} (1 − w_vu·x_v)
//
// where x_v ∈ [0,1] is the probability node v is active. The training loss
// uses a smooth φ (tanh) instead; this test oracle keeps the paper's exact
// bound to check Theorem 2 against.
func BooleActivationBound(g *graph.Graph, active []float64) []float64 {
	n := g.NumNodes()
	if len(active) != n {
		panic(fmt.Sprintf("gnn: BooleActivationBound got %d activations for %d nodes", len(active), n))
	}
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		sum := 0.0
		for _, a := range g.In(graph.NodeID(u)) {
			sum += a.Weight * active[a.To]
		}
		if sum > 1 {
			sum = 1
		}
		out[u] = sum
	}
	return out
}

// ExactOneStepActivation returns the true probability each node is
// activated by one IC step from independent per-node activation
// probabilities: p(u) = 1 − Π_{v∈N(u)} (1 − w_vu·x_v).
func ExactOneStepActivation(g *graph.Graph, active []float64) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		survive := 1.0
		for _, a := range g.In(graph.NodeID(u)) {
			survive *= 1 - a.Weight*active[a.To]
		}
		out[u] = 1 - survive
	}
	return out
}
