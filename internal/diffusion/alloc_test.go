package diffusion

import (
	"context"
	"testing"

	"privim/internal/graph"
)

// allocTestGraph is big enough that a cascade touches many nodes, so any
// per-round or per-simulation allocation would show up multiplied.
func allocTestGraph() *graph.Graph {
	b := graph.NewBuilder(300, true)
	for i := 0; i < 299; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.4)
	}
	for i := 0; i < 300; i += 7 {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i*13+5)%300), 0.6)
	}
	return b.Build()
}

// TestEstimateSteadyStateZeroAlloc pins serial Monte-Carlo estimation at
// zero allocations once the estState and per-model simulation pools are
// warm: frontier swaps, epoch-stamped membership, and the pre-built
// parallel.For body mean repeated Estimate calls recycle everything.
func TestEstimateSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc floors do not hold under -race (sync.Pool drops Puts)")
	}
	g := allocTestGraph()
	seeds := []graph.NodeID{0, 50, 100}
	for _, tc := range []struct {
		name  string
		model Model
	}{
		{"ic", &IC{G: g}},
		{"lt", &LT{G: g}},
		{"sis", &SIS{G: g, Recovery: 0.3, Steps: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() { Estimate(context.Background(), tc.model, seeds, 50, 7, Options{Workers: 1}) }
			run() // warm the pools
			if got := testing.AllocsPerRun(10, run); got != 0 {
				t.Fatalf("Estimate(%s) allocates %v objects/op after warm-up, want 0", tc.name, got)
			}
		})
	}
}

// TestEstimateWidthSteadyStateAllocs extends the serial floor to pool
// widths 2, 4 and 8: a warm Estimate costs at most parallel.For's 3 + 2w
// per call, so nothing per round or per worker slot escapes the pools.
func TestEstimateWidthSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc floors do not hold under -race (sync.Pool drops Puts)")
	}
	g := allocTestGraph()
	seeds := []graph.NodeID{0, 50, 100}
	for _, tc := range []struct {
		name  string
		model Model
	}{
		{"ic", &IC{G: g}},
		{"lt", &LT{G: g}},
		{"sis", &SIS{G: g, Recovery: 0.3, Steps: 10}},
	} {
		for _, w := range []int{2, 4, 8} {
			run := func() { Estimate(context.Background(), tc.model, seeds, 50, 7, Options{Workers: w}) }
			run() // warm the pools at this width
			if got, want := testing.AllocsPerRun(10, run), 3+2*w; got > float64(want) {
				t.Errorf("Estimate(%s) at width %d allocates %v objects/op after warm-up, want <= %d", tc.name, w, got, want)
			}
		}
	}
}

// TestEstimateWorkerInvariant re-checks bit-equality of the pooled
// estimate path across pool widths: pooled scratch is keyed by worker
// slot and RNG streams by round index, so the width must not matter.
func TestEstimateWorkerInvariant(t *testing.T) {
	g := allocTestGraph()
	seeds := []graph.NodeID{0, 50, 100}
	for _, tc := range []struct {
		name  string
		model Model
	}{
		{"ic", &IC{G: g}},
		{"lt", &LT{G: g}},
		{"sis", &SIS{G: g, Recovery: 0.3, Steps: 10}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := Estimate(context.Background(), tc.model, seeds, 200, 5, Options{Workers: 1})
			for _, w := range []int{2, 4, 8} {
				// Run twice per width so pooled state from the previous
				// run is also exercised.
				for rep := 0; rep < 2; rep++ {
					if got, _ := Estimate(context.Background(), tc.model, seeds, 200, 5, Options{Workers: w}); got != want {
						t.Fatalf("%s workers=%d rep=%d: estimate %v != serial %v", tc.name, w, rep, got, want)
					}
				}
			}
		})
	}
}
