package diffusion

import (
	"context"
	"math"
	"testing"
	"unsafe"

	"privim/internal/graph"
	"privim/internal/parallel"
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

// TestEstimateRoundStreams pins the stream contract: round r of a seeded
// Estimate draws from StreamRNG stream (seed, r), so the estimate equals,
// bit for bit, the mean of Simulate over those streams at any width.
func TestEstimateRoundStreams(t *testing.T) {
	g := allocTestGraph()
	seeds := []graph.NodeID{0, 50, 100}
	const rounds, seed = 37, 11
	for _, m := range []Model{&IC{G: g}, &LT{G: g}, &SIS{G: g, Recovery: 0.3, Steps: 10}} {
		var rng parallel.StreamRNG
		sum := 0
		for r := 0; r < rounds; r++ {
			rng.SetStream(seed, uint64(r))
			sum += m.Simulate(seeds, &rng)
		}
		want := float64(sum) / rounds
		for _, w := range []int{1, 2} {
			got, err := Estimate(context.Background(), m, seeds, rounds, seed, Options{Workers: w})
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s workers=%d: Estimate = %v (%v), mean over streams (seed, r) = %v", m.Name(), w, got, err, want)
			}
		}
	}
}

// TestEstimateStreamsOwnCacheLines guards against false sharing: every
// worker's stream sits at least one 64-byte cache line past the last
// counter the previous worker writes, so no two workers' streams, and no
// stream and another worker's counters, share a line.
func TestEstimateStreamsOwnCacheLines(t *testing.T) {
	var st estState
	st.reset(4, true)
	for w := 1; w < len(st.slots); w++ {
		prev := &st.slots[w-1]
		last := uintptr(unsafe.Pointer(&prev.sizes[len(prev.sizes)-1]))
		if d := uintptr(unsafe.Pointer(&st.slots[w].rng)) - last; d < 64 {
			t.Fatalf("worker %d's stream sits %d bytes after worker %d's last counter, want >= 64", w, d, w-1)
		}
	}
}
