package im

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"privim/internal/diffusion"
	"privim/internal/graph"
)

func TestIMMPicksBothHubs(t *testing.T) {
	g := twoStars()
	s := &IMM{G: g, Seed: 1}
	seeds := s.Select(2)
	if err := ValidateSeeds(seeds, g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	if !seedsContain(seeds, 0, 6) {
		t.Fatalf("IMM seeds = %v, want hubs {0, 6}", seeds)
	}
}

func TestIMMEdgeCases(t *testing.T) {
	g := twoStars()
	s := &IMM{G: g, Seed: 1}
	if got := s.Select(0); got != nil {
		t.Fatalf("Select(0) = %v", got)
	}
	if got := s.Select(100); len(got) != g.NumNodes() {
		t.Fatalf("Select(100) = %d seeds, want %d", len(got), g.NumNodes())
	}
	// Edgeless graph must terminate and fill deterministically.
	empty := graph.NewBuilder(5, true).Build()
	se := &IMM{G: empty, Seed: 1, MaxSamples: 100}
	got := se.Select(3)
	if len(got) != 3 {
		t.Fatalf("edgeless Select = %v", got)
	}
	if err := ValidateSeeds(got, 5); err != nil {
		t.Fatal(err)
	}
}

func TestIMMDefaultsApplied(t *testing.T) {
	// Out-of-range epsilon/ell fall back to defaults and still work.
	g := twoStars()
	s := &IMM{G: g, Epsilon: 5, Ell: -2, Seed: 1}
	seeds := s.Select(2)
	if !seedsContain(seeds, 0, 6) {
		t.Fatalf("IMM with defaulted params seeds = %v", seeds)
	}
}

func TestIMMComparableToCELF(t *testing.T) {
	// On a random graph IMM's spread should land close to CELF's (within
	// 15% — both carry approximation guarantees).
	rng := rand.New(rand.NewSource(8))
	b := graph.NewBuilder(60, true)
	for i := 0; i < 240; i++ {
		u, v := graph.NodeID(rng.Intn(60)), graph.NodeID(rng.Intn(60))
		if u != v {
			b.AddEdge(u, v, 0.3)
		}
	}
	g := b.Build()
	model := &diffusion.IC{G: g}
	celf := &CELF{Model: model, Rounds: 200, Seed: 3, NumNodes: 60}
	imm := &IMM{G: g, Seed: 3}
	celfSpread := spread(model, celf.Select(5), 2000, 9)
	immSpread := spread(model, imm.Select(5), 2000, 9)
	if immSpread < 0.85*celfSpread {
		t.Fatalf("IMM spread %v too far below CELF %v", immSpread, celfSpread)
	}
}

func TestLogChooseF(t *testing.T) {
	if got := math.Exp(logChooseF(10, 3)); math.Abs(got-120) > 1e-9 {
		t.Fatalf("C(10,3) = %v", got)
	}
	if !math.IsInf(logChooseF(3, 5), -1) {
		t.Fatal("C(3,5) should be -Inf")
	}
}

func TestRRIndexMaxCoverEmpty(t *testing.T) {
	ix := newRRIndex(3)
	seeds, frac, err := ix.maxCover(context.Background(), 2)
	if err != nil || frac != 0 || len(seeds) != 2 {
		t.Fatalf("empty index maxCover = %v, %v, %v", seeds, frac, err)
	}
}

// linearMaxCover is the O(k·n) greedy maxCover replaced: each pick scans
// every node for the first strictly highest count and every set for
// membership, without the coverage index.
func linearMaxCover(a *rrArena, n, k int) ([]graph.NodeID, float64) {
	count := make([]int, n)
	for i := 0; i < a.numSets(); i++ {
		for _, v := range a.set(i) {
			count[v]++
		}
	}
	covered := make([]bool, a.numSets())
	var seeds []graph.NodeID
	total := 0
	for len(seeds) < k && len(seeds) < n {
		best, bestVal := -1, 0
		for v := 0; v < n; v++ {
			if count[v] > bestVal {
				best, bestVal = v, count[v]
			}
		}
		if best < 0 {
			for v := 0; v < n && len(seeds) < k; v++ {
				if count[v] >= 0 {
					seeds = append(seeds, graph.NodeID(v))
					count[v] = -1
				}
			}
			break
		}
		seeds = append(seeds, graph.NodeID(best))
		for i := range covered {
			if covered[i] || !slices.Contains(a.set(i), graph.NodeID(best)) {
				continue
			}
			covered[i] = true
			total++
			for _, v := range a.set(i) {
				if count[v] > 0 {
					count[v]--
				}
			}
		}
		count[best] = -1
	}
	if len(covered) == 0 {
		return seeds, 0
	}
	return seeds, float64(total) / float64(len(covered))
}

// TestMaxCoverMatchesLinearArgmax compares the lazy-heap maxCover with
// the linear-argmax oracle on random arenas indexed in random batches:
// small node counts and short sets make count ties common, and k up to
// n reaches the all-covered fill.
func TestMaxCoverMatchesLinearArgmax(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		ix := newRRIndex(n)
		for batch, batches := 0, rng.Intn(4); batch < batches; batch++ {
			base := ix.arena.numSets()
			for s, sets := 0, 1+rng.Intn(15); s < sets; s++ {
				perm := rng.Perm(n)
				set := make([]graph.NodeID, 1+rng.Intn(min(n, 4)))
				for j := range set {
					set[j] = graph.NodeID(perm[j])
				}
				ix.arena.appendSet(set)
			}
			ix.cover.add(&ix.arena, base, n)
		}
		for _, k := range []int{1, 1 + rng.Intn(n), n} {
			got, gotFrac, err := ix.maxCover(context.Background(), k)
			want, wantFrac := linearMaxCover(&ix.arena, n, k)
			if err != nil || !slices.Equal(got, want) || gotFrac != wantFrac {
				t.Fatalf("seed %d n=%d k=%d: maxCover = %v, %v, %v; oracle = %v, %v",
					seed, n, k, got, gotFrac, err, want, wantFrac)
			}
		}
	}
}

// TestCoverSegmentsIndexEachSetOnce grows an index batch by batch, as
// IMM does, and checks after every batch that the segments hold as many
// entries as the arena and list each (set, node) membership exactly once.
func TestCoverSegmentsIndexEachSetOnce(t *testing.T) {
	g := parallelTestGraph(t)
	n := g.NumNodes()
	ix := newRRIndex(n)
	ix.smp.view.build(g, false)
	for batch, count := range []int{7, 40, 1, 200} {
		if err := ix.generate(context.Background(), count, 0, 5, 2, nil, ""); err != nil {
			t.Fatal(err)
		}
		if len(ix.cover.segs) != batch+1 {
			t.Fatalf("batch %d: %d segments", batch, len(ix.cover.segs))
		}
		entries := 0
		seen := make(map[[2]int32]int)
		for i := range ix.cover.segs {
			for v := 0; v < n; v++ {
				for _, si := range ix.cover.segs[i].of(graph.NodeID(v)) {
					seen[[2]int32{si, int32(v)}]++
				}
			}
			entries += len(ix.cover.segs[i].ids)
		}
		if entries != len(ix.arena.nodes) {
			t.Fatalf("batch %d: segments hold %d entries, arena %d", batch, entries, len(ix.arena.nodes))
		}
		for si := 0; si < ix.arena.numSets(); si++ {
			for _, v := range ix.arena.set(si) {
				if c := seen[[2]int32{int32(si), v}]; c != 1 {
					t.Fatalf("batch %d: set %d node %d indexed %d times", batch, si, v, c)
				}
			}
		}
	}
}
