package im

import (
	"context"
	"math"

	"privim/internal/graph"
	"privim/internal/obs"
)

// IMM implements Influence Maximization via Martingales (Tang, Shi, Xiao —
// SIGMOD 2015), the sampling-based state of the art the paper cites as
// [28]. It estimates a lower bound on the optimal spread with a
// geometric-search sampling phase, derives the required number of
// reverse-reachable sets for a (1 − 1/e − ε) approximation with
// probability 1 − 1/n^ℓ, and greedily max-covers those sets.
type IMM struct {
	G *graph.Graph
	// Epsilon is the approximation slack ε (default 0.3).
	Epsilon float64
	// Ell is the failure-probability exponent ℓ (default 1).
	Ell float64
	// MaxDepth bounds RR-set depth (0 = unbounded); set it to the
	// evaluation's step bound for step-limited IC objectives.
	MaxDepth int
	Seed     int64

	// MaxSamples caps RR-set generation as a safety valve for tiny or
	// degenerate graphs (default 200·|V|).
	MaxSamples int

	// Workers caps the pool for RR-set generation (0 = process default).
	// Set i always draws from the stream derived from (Seed, i), so both
	// phases produce identical sets at any width.
	Workers int
	// Obs, when non-nil, receives one ParallelFor event per generation
	// batch.
	Obs obs.Observer

	// coin sends every node down the per-arc coin path, the reference
	// sampler the tests hold the count path to.
	coin bool
}

// Name identifies the solver for reporting.
func (s *IMM) Name() string { return "imm" }

// rrIndex accumulates reverse-reachable sets in a flat arena with one
// coverage segment per generation batch, plus the sampler (view and
// per-worker scratches) and greedy buffers, all reused across IMM's
// incremental batches and across RIS's Select calls. IMM borrows its
// sampler from samplerPool for one Select; RIS keeps its own.
type rrIndex struct {
	n       int
	smp     *rrSampler
	arena   rrArena
	cover   coverIndex
	locs    []rrLoc
	covered []bool
	count   []int
	heap    coverHeap
}

func newRRIndex(n int) *rrIndex {
	return &rrIndex{n: n, smp: newRRSampler(n)}
}

// reset empties the index, keeping every buffer's capacity.
func (ix *rrIndex) reset() {
	ix.arena.reset()
	ix.cover.reset()
}

// generate appends count sets drawn through the sampler's view and
// indexes them as one coverage segment.
func (ix *rrIndex) generate(ctx context.Context, count, maxDepth int, seed int64, workers int, parent *obs.Span, site string) error {
	base := ix.arena.numSets()
	var err error
	ix.locs, _, err = generateRRSets(ctx, &ix.smp.view, &ix.arena, count, base, maxDepth, seed, workers, ix.smp.scratch, ix.locs, parent, site)
	if err != nil {
		return err
	}
	ix.cover.add(&ix.arena, base, ix.n)
	return nil
}

// maxCover greedily picks k nodes covering the most RR sets and returns
// them with the covered fraction, taking the lowest ID among equal
// counts; once every set is covered it fills with the lowest unpicked
// IDs. ctx is checked before every pick; on cancellation the picks so far
// are returned with the context error.
func (ix *rrIndex) maxCover(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
	n, numSets := ix.n, ix.arena.numSets()
	ix.covered = resized(ix.covered, numSets)
	covered := ix.covered
	clear(covered)
	ix.count = resized(ix.count, n)
	count := ix.count
	h := ix.heap[:0]
	for v := 0; v < n; v++ {
		count[v] = ix.cover.count(graph.NodeID(v))
		h = append(h, coverKey(count[v], v))
	}
	h.init()
	seeds := make([]graph.NodeID, 0, k)
	totalCovered := 0
	for len(seeds) < k && len(h) > 0 {
		if err := ctx.Err(); err != nil {
			ix.heap = h
			return seeds, 0, err
		}
		// Counts only fall, so every key bounds its node's count from
		// above: a stale top sifts down under its fresh count, and a
		// fresh top is the lowest-ID maximum.
		for c, v := h.top(); c != count[v]; c, v = h.top() {
			h[0] = coverKey(count[v], v)
			h.down(0)
		}
		c, best := h.top()
		if c == 0 {
			// Everything covered: fill arbitrarily but deterministically.
			for v := 0; v < n && len(seeds) < k; v++ {
				if count[v] >= 0 {
					seeds = append(seeds, graph.NodeID(v))
					count[v] = -1
				}
			}
			break
		}
		seeds = append(seeds, graph.NodeID(best))
		for i := range ix.cover.segs {
			for _, si := range ix.cover.segs[i].of(graph.NodeID(best)) {
				if covered[si] {
					continue
				}
				covered[si] = true
				totalCovered++
				for _, v := range ix.arena.set(int(si)) {
					if count[v] > 0 {
						count[v]--
					}
				}
			}
		}
		count[best] = -1
		h.pop()
	}
	ix.heap = h
	if numSets == 0 {
		return seeds, 0, nil
	}
	return seeds, float64(totalCovered) / float64(numSets), nil
}

// coverHeap is a max-heap of node keys count<<32 | ^id, so the top is the
// node in the most sets and, among equal counts, the lowest ID.
type coverHeap []uint64

func coverKey(count, v int) uint64 { return uint64(count)<<32 | uint64(^uint32(v)) }

// top returns the count and node of the top key.
func (h coverHeap) top() (count, v int) { return int(h[0] >> 32), int(^uint32(h[0])) }

func (h coverHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down restores the heap below i after h[i] shrank.
func (h coverHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// pop removes the top key.
func (h *coverHeap) pop() {
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	h.down(0)
}

// Select returns k seed nodes following IMM's two phases.
func (s *IMM) Select(k int) []graph.NodeID {
	seeds, _ := s.SelectContext(context.Background(), k)
	return seeds
}

// SelectContext is Select under a caller context (see CELF.SelectContext).
// Cancellation is checked at every RR-generation chunk and between the
// geometric-search iterations of the sampling phase.
func (s *IMM) SelectContext(ctx context.Context, k int) ([]graph.NodeID, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	span := obs.StartSpanCtx(ctx, s.Obs, "im.imm.select")
	defer span.End()
	o := s.Obs
	if o == nil {
		o = span.Observer()
	}
	clk := obs.WatchCancel(ctx)
	defer clk.Stop()
	n := s.G.NumNodes()
	if n == 0 || k <= 0 {
		return nil, nil
	}
	if k > n {
		k = n
	}
	eps := s.Epsilon
	if eps <= 0 || eps >= 1 {
		eps = 0.3
	}
	ell := s.Ell
	if ell <= 0 {
		ell = 1
	}
	maxSamples := s.MaxSamples
	if maxSamples <= 0 {
		maxSamples = 200 * n
	}
	fn := float64(n)
	logChooseNK := logChooseF(n, k)

	// Phase 1 (sampling): geometric search for a lower bound on OPT.
	epsPrime := math.Sqrt2 * eps
	lambdaPrime := (2 + 2*epsPrime/3) *
		(logChooseNK + ell*math.Log(fn) + math.Log(math.Log2(fn))) * fn / (epsPrime * epsPrime)
	// The sampler's view and worker scratches come from the pool; the
	// sets, their coverage index and the greedy buffers are this Select's.
	smp := getSampler(s.G, s.coin)
	defer putSampler(smp)
	ix := &rrIndex{n: n, smp: smp}
	lb := 1.0
	maxI := int(math.Log2(fn))
	if maxI < 1 {
		maxI = 1
	}
	for i := 1; i < maxI; i++ {
		if err := ctx.Err(); err != nil {
			return nil, cancelSelect(o, clk, "imm", "select", nil, k, err)
		}
		x := fn / math.Pow(2, float64(i))
		thetaI := int(lambdaPrime / x)
		if thetaI > maxSamples {
			thetaI = maxSamples
		}
		if need := thetaI - ix.arena.numSets(); need > 0 {
			if err := ix.generate(ctx, need, s.MaxDepth, s.Seed, s.Workers, span, "im.imm.rrsets"); err != nil {
				return nil, cancelSelect(o, clk, "imm", "rrgen", nil, k, err)
			}
		}
		_, frac, err := ix.maxCover(ctx, k)
		if err != nil {
			return nil, cancelSelect(o, clk, "imm", "select", nil, k, err)
		}
		if fn*frac >= (1+epsPrime)*x {
			lb = fn * frac / (1 + epsPrime)
			break
		}
		if ix.arena.numSets() >= maxSamples {
			break
		}
	}

	// Phase 2: θ = λ*/LB samples for the final guarantee.
	alpha := math.Sqrt(ell*math.Log(fn) + math.Log(2))
	beta := math.Sqrt((1 - 1/math.E) * (logChooseNK + ell*math.Log(fn) + math.Log(2)))
	lambdaStar := 2 * fn * math.Pow((1-1/math.E)*alpha+beta, 2) / (eps * eps)
	theta := int(lambdaStar / lb)
	if theta > maxSamples {
		theta = maxSamples
	}
	if need := theta - ix.arena.numSets(); need > 0 {
		if err := ix.generate(ctx, need, s.MaxDepth, s.Seed, s.Workers, span, "im.imm.rrsets"); err != nil {
			return nil, cancelSelect(o, clk, "imm", "rrgen", nil, k, err)
		}
	}
	seeds, _, err := ix.maxCover(ctx, k)
	if err != nil {
		return nil, cancelSelect(o, clk, "imm", "select", seeds, k, err)
	}
	return seeds, nil
}

// logChooseF returns log C(n, k) via log-gamma (float inputs for the IMM
// formulas).
func logChooseF(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}
