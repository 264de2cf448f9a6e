package im

import (
	"context"
	"sync"
	"testing"

	"privim/internal/diffusion"
	"privim/internal/graph"
	"privim/internal/obs"
	"privim/internal/parallel"
)

// parallelTestGraph builds a small weighted digraph with a clear hub
// structure so solver outputs are stable and meaningful.
func parallelTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	n := 40
	b := graph.NewBuilder(n, true)
	for i := 0; i < n; i++ {
		// Ring for connectivity.
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 0.3)
	}
	for i := 1; i < 10; i++ {
		// Node 0 is a hub.
		b.AddEdge(0, graph.NodeID(i*4%n), 0.8)
		b.AddEdge(graph.NodeID((i*7)%n), graph.NodeID((i*11)%n), 0.5)
	}
	return b.Build()
}

func sameSeeds(t *testing.T, name string, a, b []graph.NodeID) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d seeds", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: seed %d differs: %v vs %v", name, i, a, b)
		}
	}
}

// TestSolversWorkerInvariant verifies every parallelized solver returns
// bit-identical seed sets at any worker count.
func TestSolversWorkerInvariant(t *testing.T) {
	g := parallelTestGraph(t)
	model := &diffusion.IC{G: g, MaxSteps: 2}
	for _, w := range []int{2, 3, 8} {
		celf1 := &CELF{Model: model, Rounds: 50, Seed: 5, NumNodes: g.NumNodes(), Workers: 1}
		celfW := &CELF{Model: model, Rounds: 50, Seed: 5, NumNodes: g.NumNodes(), Workers: w}
		sameSeeds(t, "celf", celf1.Select(4), celfW.Select(4))
		if celf1.Evaluations != celfW.Evaluations {
			t.Fatalf("celf evaluations differ: %d vs %d", celf1.Evaluations, celfW.Evaluations)
		}

		ris1 := &RIS{G: g, Samples: 300, Seed: 9, Workers: 1}
		risW := &RIS{G: g, Samples: 300, Seed: 9, Workers: w}
		sameSeeds(t, "ris", ris1.Select(4), risW.Select(4))

		imm1 := &IMM{G: g, Seed: 9, MaxSamples: 400, Workers: 1}
		immW := &IMM{G: g, Seed: 9, MaxSamples: 400, Workers: w}
		sameSeeds(t, "imm", imm1.Select(4), immW.Select(4))
	}
}

// TestGenerateRRSetsStreamStable checks set i only depends on (seed, base+i):
// one batch of 2n sets equals two stacked batches of n.
func TestGenerateRRSetsStreamStable(t *testing.T) {
	g := parallelTestGraph(t)
	newScratch := func() *parallel.Scratch[*rrScratch] {
		return parallel.NewScratch(func() *rrScratch { return newRRScratch(g.NumNodes()) })
	}
	var v rrView
	v.build(g, false)
	var whole rrArena
	generateRRSets(context.Background(), &v, &whole, 100, 0, 0, 42, 3, newScratch(), nil, nil, "")
	// Two stacked batches at different widths into one arena.
	var stacked rrArena
	sc := newScratch()
	locs, _, _ := generateRRSets(context.Background(), &v, &stacked, 60, 0, 0, 42, 2, sc, nil, nil, "")
	generateRRSets(context.Background(), &v, &stacked, 40, 60, 0, 42, 5, sc, locs, nil, "")
	if whole.numSets() != stacked.numSets() {
		t.Fatalf("%d vs %d sets", whole.numSets(), stacked.numSets())
	}
	for i := 0; i < whole.numSets(); i++ {
		a, b := whole.set(i), stacked.set(i)
		if len(a) != len(b) {
			t.Fatalf("set %d: %d vs %d nodes", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d node %d differs", i, j)
			}
		}
	}
}

// TestReverseReachableScratchClean verifies a draw leaves the scratch set
// and Floyd's position marks empty, so reuse across draws cannot leak
// visited state.
func TestReverseReachableScratchClean(t *testing.T) {
	g := parallelTestGraph(t)
	var v rrView
	v.build(g, false)
	sc := newRRScratch(g.NumNodes())
	var rng parallel.StreamRNG
	for i := 0; i < 50; i++ {
		rng.SetStream(3, uint64(i))
		target := graph.NodeID(rng.Intn(g.NumNodes()))
		start, end := reverseReachable(&v, target, 0, &rng, sc)
		set := sc.arena[start:end]
		if len(set) == 0 || set[0] != target {
			t.Fatalf("draw %d: set %v does not start at target %d", i, set, target)
		}
		if got := sc.seen.Count(); got != 0 {
			t.Fatalf("draw %d left %d bits set in scratch", i, got)
		}
		if got := sc.mark.Count(); got != 0 {
			t.Fatalf("draw %d left %d position marks set", i, got)
		}
	}
}

// TestRISEmitsParallelFor checks the RR-generation site reports pool stats.
func TestRISEmitsParallelFor(t *testing.T) {
	g := parallelTestGraph(t)
	var got []obs.ParallelFor
	r := &RIS{G: g, Samples: 100, Seed: 1, Workers: 2,
		Obs: obs.ObserverFunc(func(e obs.Event) {
			if pf, ok := e.(obs.ParallelFor); ok {
				got = append(got, pf)
			}
		})}
	r.Select(3)
	if len(got) != 1 || got[0].Site != "im.ris.rrsets" || got[0].Tasks != 100 {
		t.Fatalf("unexpected ParallelFor events: %+v", got)
	}
}

// TestCELFEmitsParallelFor checks the initial-gain site: with an observer,
// Select runs the fan-out inside a "parallel.im.celf.initial" child span
// of the solver span and reports its pool stats.
func TestCELFEmitsParallelFor(t *testing.T) {
	g := parallelTestGraph(t)
	var spans []obs.SpanStart
	var fors []obs.ParallelFor
	c := &CELF{Model: &diffusion.IC{G: g, MaxSteps: 1}, Rounds: 5, Seed: 1, NumNodes: g.NumNodes(), Workers: 2,
		Obs: obs.ObserverFunc(func(e obs.Event) {
			switch e := e.(type) {
			case obs.SpanStart:
				spans = append(spans, e)
			case obs.ParallelFor:
				fors = append(fors, e)
			}
		})}
	c.Select(3)
	if len(spans) != 2 || spans[0].Span != "im.celf.select" || spans[1].Span != "parallel.im.celf.initial" ||
		spans[1].Parent != spans[0].ID {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if len(fors) != 1 || fors[0].Site != "im.celf.initial" || fors[0].Tasks != g.NumNodes() || fors[0].Chunks == 0 {
		t.Fatalf("unexpected ParallelFor events: %+v", fors)
	}
}

// TestIMMConcurrentSelects runs IMM selections from several goroutines
// at once, so the pooled samplers are borrowed and returned concurrently
// (run under -race): each must pick what a lone Select picks.
func TestIMMConcurrentSelects(t *testing.T) {
	g := parallelTestGraph(t)
	want := (&IMM{G: g, Seed: 9, Workers: 2}).Select(4)
	var wg sync.WaitGroup
	got := make([][]graph.NodeID, 6)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				got[i] = (&IMM{G: g, Seed: 9, Workers: 2}).Select(4)
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		sameSeeds(t, "concurrent imm", want, got[i])
	}
}
