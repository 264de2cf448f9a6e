package im

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"privim/internal/graph"
	"privim/internal/parallel"
)

// TestRRSetGenerationSteadyStateZeroAlloc pins serial RR-set generation at
// zero allocations once the flat arena, per-worker scratch, and location
// table have grown to steady state: each batch resets the arena and
// regenerates in place, with per-set RNG streams repositioned on a
// reusable StreamRNG instead of one rand.New per set.
func TestRRSetGenerationSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc floors do not hold under -race (sync.Pool drops Puts)")
	}
	g := parallelTestGraph(t)
	n := g.NumNodes()
	var v rrView
	v.build(g, false)
	arena := &rrArena{}
	scratch := parallel.NewScratch(func() *rrScratch { return newRRScratch(n) })
	var locs []rrLoc
	run := func() {
		arena.reset()
		locs, _, _ = generateRRSets(context.Background(), &v, arena, 400, 0, 0, 11, 1, scratch, locs, nil, "im.test.rrsets")
	}
	run() // warm: grows arena, scratch, and locs to capacity
	run()
	if got := testing.AllocsPerRun(10, run); got != 0 {
		t.Fatalf("generateRRSets allocates %v objects/op after warm-up, want 0", got)
	}
}

// TestRRSetGenerationWidthSteadyStateAllocs extends the serial floor to
// pool widths 2, 4 and 8: once every worker's draw arena and scratch is
// grown, a batch costs at most parallel.For's 3 + 2w per call.
func TestRRSetGenerationWidthSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc floors do not hold under -race (sync.Pool drops Puts)")
	}
	g := parallelTestGraph(t)
	n := g.NumNodes()
	var v rrView
	v.build(g, false)
	for _, w := range []int{2, 4, 8} {
		arena := &rrArena{}
		scratch := parallel.NewScratch(func() *rrScratch { return newRRScratch(n) })
		var locs []rrLoc
		run := func() {
			arena.reset()
			locs, _, _ = generateRRSets(context.Background(), &v, arena, 400, 0, 0, 11, w, scratch, locs, nil, "im.test.rrsets")
		}
		run() // warm: grows arena, every worker's scratch, and locs
		run()
		if got, want := testing.AllocsPerRun(10, run), 3+2*w; got > float64(want) {
			t.Errorf("generateRRSets at width %d allocates %v objects/op after warm-up, want <= %d", w, got, want)
		}
	}
}

// TestRISSelectSteadyStateAllocs pins repeated Select calls on one RIS
// solver: everything except the returned seed slice (caller-owned by
// contract) is recycled through the solver's risState.
func TestRISSelectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc floors do not hold under -race (sync.Pool drops Puts)")
	}
	g := parallelTestGraph(t)
	r := &RIS{G: g, Samples: 400, Seed: 11, Workers: 1}
	var seeds []graph.NodeID
	run := func() { seeds = r.Select(3) }
	run()
	run()
	got := testing.AllocsPerRun(10, run)
	t.Logf("RIS.Select steady-state allocs: %v", got)
	// The returned seeds slice plus span bookkeeping; anything above a
	// handful means arena or coverage-index reuse broke.
	if got > 8 {
		t.Fatalf("RIS.Select allocates %v objects/op after warm-up, want <= 8", got)
	}
	if len(seeds) != 3 {
		t.Fatalf("Select returned %d seeds, want 3", len(seeds))
	}
}

// TestIMMSelectSteadyStateAllocs pins repeated IMM selections on one
// graph: after two warm-ups a Select borrows its sampler (view buffers
// and worker scratches) from the pool, so it allocates only its own RR
// sets, their coverage segments, the greedy buffers and the seeds. The
// GC is off, so no collection empties the pool mid-measurement.
func TestIMMSelectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc floors do not hold under -race (sync.Pool drops Puts)")
	}
	g := parallelTestGraph(t)
	s := &IMM{G: g, Seed: 3, Workers: 1}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func() { s.Select(4) }
	run()
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objs := testing.AllocsPerRun(10, run)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 11 // AllocsPerRun's warm-up run counts too
	t.Logf("IMM.Select steady state: %v objects, %.0f bytes", objs, bytes)
	// Measured 32 objects and 79.8 KB (Go 1.24); a Select that built its
	// own sampler, as before the pool, took 55 objects and 99.5 KB.
	if objs > 36 || bytes > 90_000 {
		t.Fatalf("IMM.Select allocates %v objects and %.0f bytes after warm-up, want <= 36 and <= 90,000", objs, bytes)
	}
}
