package diffusion

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privim/internal/graph"
	"privim/internal/parallel"
)

// estimate is Estimate under context.Background with default options,
// which never returns an error.
func estimate(m Model, seeds []graph.NodeID, rounds int, seed int64) float64 {
	mean, _ := Estimate(context.Background(), m, seeds, rounds, seed, Options{})
	return mean
}

// stream returns a StreamRNG positioned at the start of stream (seed, 0).
func stream(seed int64) *parallel.StreamRNG {
	var rng parallel.StreamRNG
	rng.SetStream(seed, 0)
	return &rng
}

func lineGraph(n int, w float64) *graph.Graph {
	b := graph.NewBuilder(n, true)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), w)
	}
	return b.Build()
}

func TestICDeterministicWeights(t *testing.T) {
	// With w=1 the cascade is deterministic: everything reachable activates.
	g := lineGraph(10, 1)
	ic := &IC{G: g}
	rng := stream(1)
	if got := ic.Simulate([]graph.NodeID{0}, rng); got != 10 {
		t.Fatalf("spread = %d, want 10", got)
	}
	if got := ic.Simulate([]graph.NodeID{5}, rng); got != 5 {
		t.Fatalf("spread from middle = %d, want 5", got)
	}
	// With w=0 only seeds activate.
	g0 := lineGraph(10, 0)
	ic0 := &IC{G: g0}
	if got := ic0.Simulate([]graph.NodeID{0, 3}, rng); got != 2 {
		t.Fatalf("w=0 spread = %d, want 2", got)
	}
}

func TestICMaxSteps(t *testing.T) {
	g := lineGraph(10, 1)
	ic := &IC{G: g, MaxSteps: 1}
	rng := stream(1)
	// One step from node 0 reaches node 1 only.
	if got := ic.Simulate([]graph.NodeID{0}, rng); got != 2 {
		t.Fatalf("1-step spread = %d, want 2", got)
	}
}

func TestICDuplicateSeeds(t *testing.T) {
	g := lineGraph(5, 0)
	ic := &IC{G: g}
	rng := stream(1)
	if got := ic.Simulate([]graph.NodeID{2, 2, 2}, rng); got != 1 {
		t.Fatalf("duplicate seeds counted %d times", got)
	}
}

func TestICProbabilityMatchesExpectation(t *testing.T) {
	// Single edge with w=0.3: E[spread from {0}] = 1.3.
	b := graph.NewBuilder(2, true)
	b.AddEdge(0, 1, 0.3)
	g := b.Build()
	got := estimate(&IC{G: g}, []graph.NodeID{0}, 20000, 7)
	if math.Abs(got-1.3) > 0.02 {
		t.Fatalf("estimated spread %v, want ≈1.3", got)
	}
}

func TestLTThresholds(t *testing.T) {
	// Star into node 1: hub 0 with weight 1 always exceeds any threshold
	// in [0,1).
	gb := graph.NewBuilder(2, true)
	gb.AddEdge(0, 1, 1)
	g := gb.Build()
	lt := &LT{G: g}
	rng := stream(2)
	for i := 0; i < 50; i++ {
		if got := lt.Simulate([]graph.NodeID{0}, rng); got != 2 {
			t.Fatalf("LT with weight 1: spread %d, want 2", got)
		}
	}
	// Weight 0 never activates.
	b := graph.NewBuilder(2, true)
	b.AddEdge(0, 1, 0)
	g0 := b.Build()
	lt0 := &LT{G: g0}
	if got := lt0.Simulate([]graph.NodeID{0}, rng); got != 1 {
		t.Fatalf("LT with weight 0: spread %d, want 1", got)
	}
}

func TestLTAccumulation(t *testing.T) {
	// Two in-neighbors each with weight 0.5 always sum to 1.0 >= threshold.
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(1, 2, 0.5)
	g := b.Build()
	lt := &LT{G: g}
	rng := stream(3)
	for i := 0; i < 50; i++ {
		if got := lt.Simulate([]graph.NodeID{0, 1}, rng); got != 3 {
			t.Fatalf("LT accumulation: spread %d, want 3", got)
		}
	}
}

func TestSISEverInfected(t *testing.T) {
	g := lineGraph(5, 1)
	sis := &SIS{G: g, Recovery: 1, Steps: 10} // immediate recovery
	rng := stream(4)
	// Even with immediate recovery, transmission happens before recovery,
	// so the infection still travels the line.
	got := sis.Simulate([]graph.NodeID{0}, rng)
	if got != 5 {
		t.Fatalf("SIS ever-infected = %d, want 5", got)
	}
	// Zero steps panics.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Steps < 1")
		}
	}()
	(&SIS{G: g, Steps: 0}).Simulate([]graph.NodeID{0}, rng)
}

func TestSISStepsBound(t *testing.T) {
	g := lineGraph(10, 1)
	sis := &SIS{G: g, Recovery: 0, Steps: 3}
	rng := stream(5)
	if got := sis.Simulate([]graph.NodeID{0}, rng); got != 4 {
		t.Fatalf("SIS 3 steps = %d nodes, want 4", got)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	g := lineGraph(20, 0.5)
	a := estimate(&IC{G: g}, []graph.NodeID{0}, 500, 42)
	b := estimate(&IC{G: g}, []graph.NodeID{0}, 500, 42)
	if a != b {
		t.Fatalf("Estimate not deterministic: %v vs %v", a, b)
	}
	c := estimate(&IC{G: g}, []graph.NodeID{0}, 500, 43)
	if a == c {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestEstimatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rounds < 1")
		}
	}()
	estimate(&IC{G: lineGraph(2, 1)}, []graph.NodeID{0}, 0, 1)
}

// Property: spread is always within [len(unique seeds), |V|] and monotone
// under seed-set inclusion in expectation.
func TestICSpreadBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(30, true)
		for i := 0; i < 90; i++ {
			u, v := graph.NodeID(rng.Intn(30)), graph.NodeID(rng.Intn(30))
			if u != v {
				b.AddEdge(u, v, rng.Float64())
			}
		}
		g := b.Build()
		seeds := []graph.NodeID{graph.NodeID(rng.Intn(30)), graph.NodeID(rng.Intn(30))}
		unique := map[graph.NodeID]bool{seeds[0]: true, seeds[1]: true}
		got := (&IC{G: g}).Simulate(seeds, stream(seed))
		return got >= len(unique) && got <= 30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Statistical monotonicity: a superset of seeds cannot have smaller
// expected spread.
func TestICMonotoneInSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(40, true)
	for i := 0; i < 150; i++ {
		u, v := graph.NodeID(rng.Intn(40)), graph.NodeID(rng.Intn(40))
		if u != v {
			b.AddEdge(u, v, 0.2)
		}
	}
	g := b.Build()
	small := estimate(&IC{G: g}, []graph.NodeID{1}, 3000, 5)
	big := estimate(&IC{G: g}, []graph.NodeID{1, 2, 3}, 3000, 5)
	if big < small {
		t.Fatalf("superset spread %v < subset spread %v", big, small)
	}
}

func TestModelNames(t *testing.T) {
	g := lineGraph(2, 1)
	for _, m := range []Model{&IC{G: g}, &LT{G: g}, &SIS{G: g, Steps: 1}} {
		if m.Name() == "" {
			t.Fatalf("%T has empty name", m)
		}
	}
}
