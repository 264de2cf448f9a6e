// Package im implements the classical influence-maximization solvers the
// paper compares against: CELF lazy greedy (the ground truth with its
// (1−1/e) guarantee, §V-A), degree and degree-discount heuristics, and
// an RIS (reverse-influence-sampling) baseline. It also provides the
// coverage-ratio metric used throughout the evaluation.
package im

import (
	"container/heap"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"privim/internal/diffusion"
	"privim/internal/graph"
	"privim/internal/obs"
	"privim/internal/parallel"
)

// CanceledError reports a seed selection stopped early because its
// context was canceled or its deadline expired. Seeds holds the seeds
// picked before the stop — a valid greedy prefix for CELF (every
// pick was made against the full candidate pool), nil when the solver
// was still generating RR sets or initial gains. Unwrap yields the
// context error, so errors.Is(err, context.Canceled) works through it.
type CanceledError struct {
	// Solver is the solver name ("celf", "ris", "imm").
	Solver string
	// Seeds is the partial greedy prefix selected before the stop.
	Seeds []graph.NodeID
	// K is the requested seed-set size.
	K int
	// Err is the underlying context error.
	Err error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("im: %s select canceled after %d/%d seeds: %v", e.Solver, len(e.Seeds), e.K, e.Err)
}

// Unwrap returns the context error.
func (e *CanceledError) Unwrap() error { return e.Err }

// cancelSelect emits the obs.Canceled event for a stopped selection and
// wraps the partial progress in a *CanceledError.
func cancelSelect(o obs.Observer, clk *obs.CancelClock, solver, phase string, seeds []graph.NodeID, k int, err error) error {
	obs.Emit(o, obs.Canceled{
		Phase:   phase,
		Done:    len(seeds),
		Total:   k,
		Reason:  err.Error(),
		Latency: clk.Latency(),
	})
	return &CanceledError{Solver: solver, Seeds: seeds, K: k, Err: err}
}

// forObserved is parallel.For wrapped in observability: the fan-out runs
// inside a child span of parent named "parallel.<site>" and emits one
// obs.ParallelFor event to the parent's observer, so kernel-level
// concurrency shows up in traces and metrics. The event is emitted even
// on a canceled call (its Chunks count then reflects the partial
// execution), so traces show where a canceled request actually stopped.
// A nil parent runs plain parallel.For — zero events, zero allocations.
func forObserved(ctx context.Context, parent *obs.Span, site string, workers, n, grain int, fn func(worker, lo, hi int)) (parallel.Stats, error) {
	if parent == nil {
		return parallel.For(ctx, workers, n, grain, fn)
	}
	sp := parent.Child("parallel." + site)
	start := time.Now()
	st, err := parallel.For(ctx, workers, n, grain, fn)
	sp.End()
	obs.Emit(parent.Observer(), obs.ParallelFor{
		Site:      site,
		Workers:   st.Workers,
		Tasks:     n,
		Chunks:    st.Chunks,
		Imbalance: st.Imbalance(),
		Elapsed:   time.Since(start),
	})
	return st, err
}

// celfEntry is one lazy-greedy priority-queue element.
type celfEntry struct {
	node graph.NodeID
	gain float64
	// round is the greedy iteration at which gain was last evaluated;
	// a gain is exact only if round equals the current iteration.
	round int
}

type celfQueue []*celfEntry

func (q celfQueue) Len() int            { return len(q) }
func (q celfQueue) Less(i, j int) bool  { return q[i].gain > q[j].gain }
func (q celfQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *celfQueue) Push(x interface{}) { *q = append(*q, x.(*celfEntry)) }
func (q *celfQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// CELF is the cost-effective lazy-forward greedy solver. It exploits
// submodularity of the spread function: a node's marginal gain can only
// shrink as the seed set grows, so stale queue entries are upper bounds and
// most re-evaluations are skipped.
type CELF struct {
	Model diffusion.Model
	// Rounds Monte Carlo simulations per spread estimate.
	Rounds int
	// Seed drives the simulation RNG streams.
	Seed int64
	// Candidates restricts seed selection to these nodes (nil = all nodes).
	Candidates []graph.NodeID
	// numNodes is required when Candidates is nil.
	NumNodes int
	// Workers caps the pool for the initial-gain pass (0 = process
	// default). Results are identical at any width: every candidate's solo
	// spread comes from its own per-round rng streams.
	Workers int

	// Evaluations counts spread estimates performed by the last Select call
	// (exported for the lazy-evaluation efficiency tests).
	Evaluations int

	// Obs, when non-nil, receives one SeedSelected event per pick,
	// carrying the marginal gain and the cumulative number of spread
	// estimates lazy evaluation saved versus plain greedy.
	Obs obs.Observer
}

// Name identifies the solver for reporting.
func (c *CELF) Name() string { return "celf" }

// Select returns k seed nodes (fewer if the graph is smaller).
func (c *CELF) Select(k int) []graph.NodeID {
	seeds, _ := c.SelectContext(context.Background(), k)
	return seeds
}

// SelectContext is Select under a caller context: the solver's span tree
// roots under the context's span (or a fresh root on Obs) and inherits
// the context's trace ID, so solver time shows up in request traces.
//
// Cancellation is checked before every initial-gain chunk and every lazy
// pick, so a fired context stops the solver within one spread estimate.
// It returns a *CanceledError whose Seeds field is the valid greedy
// prefix picked so far; a selection that completes is bit-identical to
// the pre-context solver at any worker count.
func (c *CELF) SelectContext(ctx context.Context, k int) ([]graph.NodeID, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	span := obs.StartSpanCtx(ctx, c.Obs, "im.celf.select")
	defer span.End()
	o := c.Obs
	if o == nil {
		o = span.Observer()
	}
	clk := obs.WatchCancel(ctx)
	defer clk.Stop()
	cands := c.Candidates
	if cands == nil {
		cands = make([]graph.NodeID, c.NumNodes)
		for i := range cands {
			cands[i] = graph.NodeID(i)
		}
	}
	if k > len(cands) {
		k = len(cands)
	}
	if k <= 0 {
		return nil, nil
	}
	rounds := c.Rounds
	if rounds < 1 {
		rounds = 100
	}
	c.Evaluations = 0
	workers := parallel.Resolve(c.Workers)
	spread := func(seeds []graph.NodeID) float64 {
		c.Evaluations++
		// Serial (lazy) phase: let the estimator itself use the pool.
		mean, _ := diffusion.Estimate(context.Background(), c.Model, seeds, rounds, c.Seed, diffusion.Options{Workers: workers}) // Background never cancels
		return mean
	}

	// Initial pass: every candidate's solo spread is independent, so fan
	// the candidates out and keep each estimate serial (workers=1) to avoid
	// nesting. Estimates are per-round-seeded, so gains are identical to
	// the serial pass.
	gains := make([]float64, len(cands))
	if _, err := forObserved(ctx, span, "im.celf.initial", workers, len(cands), 4, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			gains[i], _ = diffusion.Estimate(context.Background(), c.Model, cands[i:i+1], rounds, c.Seed, diffusion.Options{Workers: 1}) // Background never cancels
		}
	}); err != nil {
		return nil, cancelSelect(o, clk, "celf", "select", nil, k, err)
	}
	c.Evaluations += len(cands)
	q := make(celfQueue, 0, len(cands))
	for i, v := range cands {
		q = append(q, &celfEntry{node: v, gain: gains[i], round: 0})
	}
	heap.Init(&q)

	seeds := make([]graph.NodeID, 0, k)
	evalBuf := make([]graph.NodeID, 0, k+1) // reused across stale re-evaluations
	base := 0.0
	for len(seeds) < k && q.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, cancelSelect(o, clk, "celf", "select", seeds, k, err)
		}
		top := heap.Pop(&q).(*celfEntry)
		if top.round == len(seeds) {
			// Gain is exact for the current seed set: take it.
			seeds = append(seeds, top.node)
			base += top.gain
			if c.Obs != nil {
				// Plain greedy evaluates every remaining candidate on each
				// pick: Σ_{j=0..picks-1}(n−j) estimates so far. The lazy
				// queue's saving is the gap to our actual evaluation count.
				picks := len(seeds)
				greedyEvals := picks*len(cands) - picks*(picks-1)/2
				obs.Emit(c.Obs, obs.SeedSelected{
					K:            len(seeds),
					Node:         int64(top.node),
					MarginalGain: top.gain,
					Evaluations:  c.Evaluations,
					LookupsSaved: greedyEvals - c.Evaluations,
				})
			}
			continue
		}
		// Stale: re-evaluate against the current seed set and push back.
		evalBuf = append(append(evalBuf[:0], seeds...), top.node)
		cur := spread(evalBuf)
		top.gain = cur - base
		top.round = len(seeds)
		heap.Push(&q, top)
	}
	return seeds, nil
}

// Degree selects the k highest out-degree nodes — the classic cheap
// heuristic.
type Degree struct {
	G *graph.Graph
}

// Name identifies the solver for reporting.
func (d *Degree) Name() string { return "degree" }

// Select returns k seed nodes (fewer if the graph is smaller).
func (d *Degree) Select(k int) []graph.NodeID {
	return topKBy(d.G.NumNodes(), k, func(v graph.NodeID) float64 {
		return float64(d.G.OutDegree(v))
	})
}

// DegreeDiscount implements the degree-discount heuristic (Chen et al.):
// after picking a node, its neighbors' effective degrees are discounted to
// correct for overlapping coverage.
type DegreeDiscount struct {
	G *graph.Graph
	// P is the propagation probability used in the discount formula
	// (defaults to 0.1 when zero).
	P float64
}

// Name identifies the solver for reporting.
func (d *DegreeDiscount) Name() string { return "degree-discount" }

// Select returns k seed nodes (fewer if the graph is smaller).
func (d *DegreeDiscount) Select(k int) []graph.NodeID {
	p := d.P
	if p == 0 {
		p = 0.1
	}
	n := d.G.NumNodes()
	if k > n {
		k = n
	}
	dd := make([]float64, n)  // discounted degree
	tv := make([]int, n)      // number of selected in-neighbors
	chosen := make([]bool, n) //
	deg := make([]float64, n) // original out-degree
	for v := 0; v < n; v++ {
		deg[v] = float64(d.G.OutDegree(graph.NodeID(v)))
		dd[v] = deg[v]
	}
	seeds := make([]graph.NodeID, 0, k)
	for len(seeds) < k {
		best, bestVal := -1, -1.0
		for v := 0; v < n; v++ {
			if !chosen[v] && dd[v] > bestVal {
				best, bestVal = v, dd[v]
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		seeds = append(seeds, graph.NodeID(best))
		for _, a := range d.G.Out(graph.NodeID(best)) {
			v := int(a.To)
			if chosen[v] {
				continue
			}
			tv[v]++
			t := float64(tv[v])
			dd[v] = deg[v] - 2*t - (deg[v]-t)*t*p
		}
	}
	return seeds
}

// RIS is the reverse-influence-sampling baseline: it generates random
// reverse-reachable (RR) sets under the IC model and greedily picks seeds
// covering the most RR sets (max-coverage), the core of TIM/IMM.
type RIS struct {
	G *graph.Graph
	// Samples is the number of RR sets (defaults to 10·|V| when zero).
	Samples int
	// MaxDepth bounds the reverse BFS depth of each RR set (0 =
	// unbounded), matching a step-bounded IC evaluation such as the
	// paper's j=1 setting.
	MaxDepth int
	Seed     int64
	// Workers caps the pool for RR-set generation (0 = process default).
	// Each RR set draws from its own index-derived rng stream, so the
	// sampled sets are identical at any width.
	Workers int
	// Obs, when non-nil, receives one ParallelFor event per Select call.
	Obs obs.Observer

	// ix persists the RR-set arena, coverage index, sampler view,
	// per-worker scratches, and greedy buffers across Select calls (see
	// DESIGN.md §"Scratch arenas"), so repeated selections on one solver
	// reuse all storage.
	ix *rrIndex
	// coin sends every node down the per-arc coin path, the reference
	// sampler the tests hold the count path to.
	coin bool
}

// Name identifies the solver for reporting.
func (r *RIS) Name() string { return "ris" }

// Select returns k seed nodes (fewer if the graph is smaller).
func (r *RIS) Select(k int) []graph.NodeID {
	seeds, _ := r.SelectContext(context.Background(), k)
	return seeds
}

// SelectContext is Select under a caller context (see CELF.SelectContext).
// Cancellation is checked at every RR-generation chunk and every
// max-coverage pick; RR sets generated before the stop are discarded
// (the *CanceledError's Seeds is nil unless the pick loop had started).
func (r *RIS) SelectContext(ctx context.Context, k int) ([]graph.NodeID, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	span := obs.StartSpanCtx(ctx, r.Obs, "im.ris.select")
	defer span.End()
	o := r.Obs
	if o == nil {
		o = span.Observer()
	}
	clk := obs.WatchCancel(ctx)
	defer clk.Stop()
	n := r.G.NumNodes()
	if k > n {
		k = n
	}
	samples := r.Samples
	if samples < 1 {
		samples = 10 * n
	}
	// Build RR sets: from a uniform target, walk reverse arcs, keeping each
	// with its influence probability. Set i draws target and arcs from its
	// own stream, so generation parallelizes without changing the sample.
	if r.ix == nil {
		r.ix = newRRIndex(n)
	}
	ix := r.ix
	ix.reset()
	ix.smp.view.build(r.G, r.coin) // weights may have changed since the last Select
	if err := ix.generate(ctx, samples, r.MaxDepth, r.Seed, r.Workers, span, "im.ris.rrsets"); err != nil {
		obs.Emit(o, obs.Canceled{
			Phase:   "rrgen",
			Done:    ix.arena.numSets(),
			Total:   samples,
			Reason:  err.Error(),
			Latency: clk.Latency(),
		})
		return nil, &CanceledError{Solver: "ris", K: k, Err: err}
	}
	seeds, _, err := ix.maxCover(ctx, k)
	if err != nil {
		return nil, cancelSelect(o, clk, "ris", "select", seeds, k, err)
	}
	return seeds, nil
}

// rrArena stores RR sets back-to-back in one flat backing slice: set i is
// nodes[offs[i]:offs[i+1]]. Replacing per-set slices with one arena cuts
// the sampler's allocation count from O(samples) to O(1) amortized and
// keeps the sets cache-contiguous for the max-coverage sweeps.
type rrArena struct {
	nodes []graph.NodeID
	offs  []uint32 // offs[0] == 0 once any set exists; len == numSets+1
}

// numSets returns the number of stored sets.
func (a *rrArena) numSets() int {
	if len(a.offs) == 0 {
		return 0
	}
	return len(a.offs) - 1
}

// set returns set i as a view into the arena; callers must not retain it
// across a reset.
func (a *rrArena) set(i int) []graph.NodeID { return a.nodes[a.offs[i]:a.offs[i+1]] }

// appendSet copies s to the end of the arena as the next set.
func (a *rrArena) appendSet(s []graph.NodeID) {
	if len(a.offs) == 0 {
		a.offs = append(a.offs, 0)
	}
	a.nodes = append(a.nodes, s...)
	a.offs = append(a.offs, uint32(len(a.nodes)))
}

// reset empties the arena, keeping capacity.
func (a *rrArena) reset() { a.nodes, a.offs = a.nodes[:0], a.offs[:0] }

// grow makes room for sets more sets of nodes nodes in all, so the
// appendSet calls that follow never reallocate.
func (a *rrArena) grow(sets, nodes int) {
	a.offs = slices.Grow(a.offs, sets+1)
	a.nodes = slices.Grow(a.nodes, nodes)
}

// coverIndex maps node → indices of the RR sets containing it, as one CSR
// segment per generation batch: within a segment, node v's set IDs are
// ids[offs[v]:offs[v+1]], ascending, and the segments run in batch
// order, so walking them in order lists v's sets ascending. Each batch is
// indexed once, when it lands; reset keeps every segment's buffers.
type coverIndex struct {
	segs []coverSeg
}

type coverSeg struct {
	offs []uint32
	ids  []int32
}

func (c *coverIndex) reset() { c.segs = c.segs[:0] }

// add indexes sets lo.. of a as a new segment over n nodes, by count →
// prefix-sum → fill passes with offs[v] as v's fill cursor.
func (c *coverIndex) add(a *rrArena, lo, n int) {
	if len(c.segs) < cap(c.segs) {
		c.segs = c.segs[:len(c.segs)+1]
	} else {
		c.segs = append(c.segs, coverSeg{})
	}
	s := &c.segs[len(c.segs)-1]
	s.offs = resized(s.offs, n+1)
	clear(s.offs)
	hi := a.numSets()
	var start uint32
	if lo < hi {
		start = a.offs[lo]
	}
	for _, v := range a.nodes[start:] {
		s.offs[v+1]++
	}
	for v := 0; v < n; v++ {
		s.offs[v+1] += s.offs[v]
	}
	s.ids = resized(s.ids, len(a.nodes)-int(start))
	for i := lo; i < hi; i++ {
		for _, v := range a.set(i) {
			s.ids[s.offs[v]] = int32(i)
			s.offs[v]++
		}
	}
	// Each cursor now sits at its node's end, the next node's start.
	copy(s.offs[1:], s.offs[:n])
	s.offs[0] = 0
}

// count returns the number of indexed sets containing v.
func (c *coverIndex) count(v graph.NodeID) int {
	total := 0
	for i := range c.segs {
		total += int(c.segs[i].offs[v+1] - c.segs[i].offs[v])
	}
	return total
}

// of returns the segment's covering set indices of v.
func (s *coverSeg) of(v graph.NodeID) []int32 { return s.ids[s.offs[v]:s.offs[v+1]] }

// resized returns buf with length n, reallocating only when its capacity
// is short; the contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// rrLoc records where a set landed during the parallel fan-out: worker
// w's private arena, at [start, end). Indexed by global set index, it
// lets the compaction pass stitch the shared arena together in set-index
// order no matter which worker drew which set.
type rrLoc struct {
	worker     int32
	start, end uint32
}

// rrGenState carries one generateRRSets call's parameters into a worker
// body that is built once and pooled, so steady-state batches do not pay
// a closure allocation per call (same pattern as diffusion's estState).
type rrGenState struct {
	v        *rrView
	base     int
	maxDepth int
	seed     int64
	scratch  *parallel.Scratch[*rrScratch]
	locs     []rrLoc
	body     func(w, lo, hi int)
}

var rrGenPool = sync.Pool{New: func() any {
	gs := &rrGenState{}
	gs.body = func(w, lo, hi int) {
		sc := gs.scratch.Get(w)
		for i := lo; i < hi; i++ {
			// Repositioning the per-worker RNG gives set i its own
			// stream (seed, base+i) without allocating.
			sc.rng.SetStream(gs.seed, uint64(gs.base+i))
			target := graph.NodeID(sc.rng.Intn(gs.v.n))
			s, e := reverseReachable(gs.v, target, gs.maxDepth, &sc.rng, sc)
			gs.locs[i] = rrLoc{worker: int32(w), start: s, end: e}
		}
	}
	return gs
}}

// generateRRSets appends count sets drawn through view v to arena, set
// base+j drawn from the stream derived from (seed, base+j) — base offsets
// the stream index so incremental callers (IMM) keep set identities
// stable across batches. It fans the draws out on the worker pool with
// one scratch per worker: each worker appends into its private arena and
// records locations in locs (disjoint writes), then a sequential
// compaction pass copies sets into the shared arena in index order, so
// the result is bit-identical at any worker count. Returns the (possibly
// regrown) locs buffer and the pool stats; a non-nil parent span gets a
// child span and a ParallelFor event under the given site name.
//
// ctx is checked at every draw-chunk boundary; on cancellation the
// partial draws are discarded (worker arenas cleared, nothing compacted
// into arena) and the context error is returned.
func generateRRSets(ctx context.Context, v *rrView, arena *rrArena, count, base, maxDepth int, seed int64, workers int, scratch *parallel.Scratch[*rrScratch], locs []rrLoc, parent *obs.Span, site string) ([]rrLoc, parallel.Stats, error) {
	workers = parallel.Resolve(workers)
	if workers > count {
		workers = count
	}
	if workers < 1 {
		workers = 1
	}
	scratch.Grow(workers)
	if cap(locs) < count {
		locs = make([]rrLoc, count)
	}
	locs = locs[:count]
	gs := rrGenPool.Get().(*rrGenState)
	gs.v, gs.base, gs.maxDepth, gs.seed = v, base, maxDepth, seed
	gs.scratch, gs.locs = scratch, locs
	st, err := forObserved(ctx, parent, site, workers, count, 16, gs.body)
	gs.v, gs.scratch, gs.locs = nil, nil, nil // don't pin caller data in the pool
	rrGenPool.Put(gs)
	if err != nil {
		// Partial draws are unusable (locs has holes); drop them so the
		// scratches are clean for the next call.
		scratch.Each(func(_ int, sc *rrScratch) { sc.arena = sc.arena[:0] })
		return locs, st, err
	}
	total := 0
	for _, l := range locs {
		total += int(l.end - l.start)
	}
	arena.grow(count, total)
	for i := range locs {
		sc := scratch.Get(int(locs[i].worker))
		arena.appendSet(sc.arena[locs[i].start:locs[i].end])
	}
	scratch.Each(func(_ int, sc *rrScratch) { sc.arena = sc.arena[:0] })
	return locs, st, nil
}

// topKBy returns the k node IDs with the highest score, ties broken by ID
// for determinism.
func topKBy(n, k int, score func(graph.NodeID) float64) []graph.NodeID {
	if k > n {
		k = n
	}
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	sort.Slice(ids, func(i, j int) bool {
		si, sj := score(ids[i]), score(ids[j])
		if si != sj {
			return si > sj
		}
		return ids[i] < ids[j]
	})
	return ids[:k]
}

// TopKScores returns the k highest-scoring node IDs from a dense score
// vector (the seed-selection step after GNN inference).
func TopKScores(scores []float64, k int) []graph.NodeID {
	return topKBy(len(scores), k, func(v graph.NodeID) float64 { return scores[v] })
}

// CoverageRatio is the paper's metric |V_method| / |V_CELF| expressed in
// percent. Returns 0 when the reference spread is 0.
func CoverageRatio(methodSpread, celfSpread float64) float64 {
	if celfSpread <= 0 {
		return 0
	}
	return 100 * methodSpread / celfSpread
}

// ValidateSeeds checks a seed set for duplicates and range errors; solvers'
// outputs are passed through this in tests.
func ValidateSeeds(seeds []graph.NodeID, numNodes int) error {
	seen := make(map[graph.NodeID]bool, len(seeds))
	for _, s := range seeds {
		if int(s) < 0 || int(s) >= numNodes {
			return fmt.Errorf("im: seed %d out of range [0,%d)", s, numNodes)
		}
		if seen[s] {
			return fmt.Errorf("im: duplicate seed %d", s)
		}
		seen[s] = true
	}
	return nil
}
