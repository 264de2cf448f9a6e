package im

import (
	"math"
	"sync"

	"privim/internal/bitset"
	"privim/internal/graph"
	"privim/internal/parallel"
)

// How a node's live in-arcs are drawn (rrView.how). Any value >= 0 is
// the offset of the node's Binomial(d, p) table in rrView.cdf.
const (
	drawAll  = -1 // every in-arc has weight 1: take them all, no draw
	drawNone = -2 // no in-arc, or every in-arc has weight 0
	drawCoin = -3 // mixed weights, or one weight in (½, 1): a coin per arc
)

// cdfEnd closes every Binomial table: no Int63 reaches it, so a scan for
// the first threshold above the draw always stops.
const cdfEnd = 1 << 63

// rrView is the RR-set sampler's view of a graph's in-adjacency. A node
// whose d in-arcs share one weight p ≤ ½ draws its live in-arcs as a
// count K ~ Binomial(d, p), one Int63 against a table of the CDF scaled
// to 2⁶³, then K distinct positions by Floyd's algorithm: in
// distribution the d independent coins of the coin path, up to float64
// rounding of the CDF, at one draw plus K instead of d (under weighted
// cascade p = 1/d, so K is about 1). Each distinct (d, p) gets one
// table. The view is rebuilt at every Select, since weights can change
// in place, into buffers that stay with the sampler.
type rrView struct {
	g   *graph.Graph   // the coin path's arcs; nil while the sampler is pooled
	n   int            // node count
	off []int32        // node u's in-neighbours are src[off[u]:off[u+1]]
	src []graph.NodeID // in-neighbour IDs in CSR order
	how []int32        // per node: drawAll, drawNone, drawCoin or a table
	cdf []uint64       // the Binomial tables, each ending in cdfEnd
	// tabs finds a (d, p) pair's table; maxCount is the largest d with one.
	tabs     map[binKey]int32
	maxCount int
}

type binKey struct {
	d int
	p float64
}

// build fills v from g's in-adjacency. With coin set every node takes
// the coin path: the reference sampler the count path must match.
func (v *rrView) build(g *graph.Graph, coin bool) {
	n := g.NumNodes()
	v.g, v.n, v.maxCount = g, n, 0
	v.off = resized(v.off, n+1)
	v.off[0] = 0
	for u := 0; u < n; u++ {
		v.off[u+1] = v.off[u] + int32(g.InDegree(graph.NodeID(u)))
	}
	v.src = resized(v.src, int(v.off[n]))
	v.how = resized(v.how, n)
	v.cdf = v.cdf[:0]
	if v.tabs == nil {
		v.tabs = map[binKey]int32{}
	}
	clear(v.tabs)
	for u := 0; u < n; u++ {
		arcs := g.In(graph.NodeID(u))
		src := v.src[v.off[u]:v.off[u+1]]
		for i, a := range arcs {
			src[i] = a.To
		}
		v.how[u] = v.rule(arcs, coin)
	}
}

// rule picks how a node with in-arcs arcs draws its live ones.
func (v *rrView) rule(arcs []graph.Arc, coin bool) int32 {
	if coin {
		return drawCoin
	}
	if len(arcs) == 0 {
		return drawNone
	}
	p := arcs[0].Weight
	for _, a := range arcs[1:] {
		if a.Weight != p {
			return drawCoin
		}
	}
	switch {
	case p == 0:
		return drawNone
	case p == 1:
		return drawAll
	case p > 0.5:
		return drawCoin
	}
	return v.table(len(arcs), p)
}

// table returns the offset of the Binomial(d, p) table, appending it on
// first use: entry k is P(K ≤ k)·2⁶³, from log-space probabilities so no
// (1−p)^d underflows before it is summed. The table stops at the first
// entry that rounds to 2⁶³ (the tail it drops is below float64's 2⁻⁵³),
// which becomes cdfEnd.
func (v *rrView) table(d int, p float64) int32 {
	key := binKey{d, p}
	if t, ok := v.tabs[key]; ok {
		return t
	}
	t := int32(len(v.cdf))
	v.tabs[key] = t
	v.maxCount = max(v.maxCount, d)
	lq := math.Log1p(-p)
	odds := math.Log(p) - lq
	lpmf, c := float64(d)*lq, 0.0 // ln P(K = k), P(K ≤ k)
	for k := 0; k < d; k++ {
		c += math.Exp(lpmf)
		x := c * cdfEnd
		if x >= cdfEnd {
			break
		}
		v.cdf = append(v.cdf, uint64(x))
		lpmf += math.Log(float64(d-k)/float64(k+1)) + odds
	}
	v.cdf = append(v.cdf, cdfEnd)
	return t
}

// count draws K from the table at offset t.
func (v *rrView) count(t int32, rng *parallel.StreamRNG) int {
	r, tab := uint64(rng.Int63()), v.cdf[t:]
	k := 0
	for r >= tab[k] {
		k++
	}
	return k
}

// rrScratch is the reusable per-worker state of the RR-set sampler: a
// dense visited set, frontier buffers, Floyd's position marks, and a
// worker-private arena that draws append into (compacted into the shared
// arena after the fan-out), so steady-state generation performs zero
// heap work.
type rrScratch struct {
	seen           *bitset.Set
	frontier, next []graph.NodeID
	arena          []graph.NodeID // this worker's draws, pending compaction
	mark           *bitset.Set    // positions Floyd's algorithm has picked
	picked         []int32        // the marked positions, to unmark
	rng            parallel.StreamRNG
}

func newRRScratch(n int) *rrScratch {
	return &rrScratch{seen: bitset.New(n), mark: bitset.New(0)}
}

// add puts w, not yet seen, into the set and the next frontier.
func (sc *rrScratch) add(w graph.NodeID) {
	sc.seen.Add(int(w))
	sc.next = append(sc.next, w)
	sc.arena = append(sc.arena, w)
}

// reach adds w unless the set already holds it.
func (sc *rrScratch) reach(w graph.NodeID) {
	if !sc.seen.Contains(int(w)) {
		sc.add(w)
	}
}

// pick reaches k of src's positions drawn uniformly without replacement
// by Floyd's algorithm: at step j a position in [0, j] is drawn, and j
// itself stands in for one already picked, so k draws suffice even for
// a hub.
func (sc *rrScratch) pick(src []graph.NodeID, k int, rng *parallel.StreamRNG) {
	d := len(src)
	switch {
	case k == 0:
		return
	case k == d:
		for _, w := range src {
			sc.reach(w)
		}
		return
	case k == 1:
		sc.reach(src[rng.Intn(d)])
		return
	}
	sc.picked = sc.picked[:0]
	for j := d - k; j < d; j++ {
		t := rng.Intn(j + 1)
		if sc.mark.Contains(t) {
			t = j
		}
		sc.mark.Add(t)
		sc.picked = append(sc.picked, int32(t))
		sc.reach(src[t])
	}
	for _, t := range sc.picked {
		sc.mark.Remove(int(t))
	}
}

// reverseReachable samples one reverse-reachable set from target: a BFS
// over in-arcs keeping each arc with its influence probability, drawn as
// the view says, optionally depth-bounded (maxDepth 0 = unbounded). The
// set is appended to sc.arena and returned as its [start, end) offsets;
// sc is left clean (seen and marks empty) for the next draw.
func reverseReachable(v *rrView, target graph.NodeID, maxDepth int, rng *parallel.StreamRNG, sc *rrScratch) (start, end uint32) {
	if sc.mark.Len() < v.maxCount {
		sc.mark = bitset.New(v.maxCount)
	}
	start = uint32(len(sc.arena))
	sc.seen.Add(int(target))
	sc.arena = append(sc.arena, target)
	frontier := append(sc.frontier[:0], target)
	for depth := 0; len(frontier) > 0 && (maxDepth <= 0 || depth < maxDepth); depth++ {
		sc.next = sc.next[:0]
		for _, u := range frontier {
			src := v.src[v.off[u]:v.off[u+1]]
			switch how := v.how[u]; how {
			case drawNone:
			case drawAll:
				for _, w := range src {
					sc.reach(w)
				}
			case drawCoin:
				for _, a := range v.g.In(u) {
					if !sc.seen.Contains(int(a.To)) && rng.Float64() < a.Weight {
						sc.add(a.To)
					}
				}
			default:
				sc.pick(src, v.count(how, rng), rng)
			}
		}
		frontier, sc.next = sc.next, frontier
	}
	sc.frontier = frontier
	// Reset only the touched bits: O(|set|), not O(n).
	for _, w := range sc.arena[start:] {
		sc.seen.Remove(int(w))
	}
	return start, uint32(len(sc.arena))
}

// rrSampler is what RR-set generation reuses on graphs of one size: the
// view and one scratch per worker.
type rrSampler struct {
	n       int
	view    rrView
	scratch *parallel.Scratch[*rrScratch]
}

func newRRSampler(n int) *rrSampler {
	return &rrSampler{n: n, scratch: parallel.NewScratch(func() *rrScratch { return newRRScratch(n) })}
}

// samplerPool lends each IMM Select a sampler, so a selection reuses the
// last one's view buffers and grown worker arenas instead of regrowing
// them by doubling. A pooled sampler is kept only for its node count.
var samplerPool sync.Pool

// getSampler borrows a sampler for g and builds its view.
func getSampler(g *graph.Graph, coin bool) *rrSampler {
	s, _ := samplerPool.Get().(*rrSampler)
	if s == nil || s.n != g.NumNodes() {
		s = newRRSampler(g.NumNodes())
	}
	s.view.build(g, coin)
	return s
}

// putSampler returns s to the pool without its graph.
func putSampler(s *rrSampler) {
	s.view.g = nil
	samplerPool.Put(s)
}
