// Package diffusion implements influence-propagation simulation: the
// Independent Cascade model (Definition 6, the paper's evaluation model)
// plus the Linear Threshold and SIS models named as future-work extensions.
// Spread estimation is Monte Carlo with optional parallelism; round r of
// a seeded estimate draws from the StreamRNG stream (seed, r), so every run
// is deterministic given its seed.
package diffusion

import (
	"context"
	"fmt"
	"sync"
	"time"

	"privim/internal/graph"
	"privim/internal/obs"
	"privim/internal/parallel"
)

// CanceledError reports a Monte-Carlo estimate stopped early because its
// context was canceled or its deadline expired. Done/Total record the
// partial progress; Unwrap yields the context error, so
// errors.Is(err, context.Canceled) works through it.
type CanceledError struct {
	// Done and Total are simulation rounds completed vs requested.
	Done, Total int
	// Err is the underlying context error.
	Err error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("diffusion: estimate canceled after %d/%d rounds: %v", e.Done, e.Total, e.Err)
}

// Unwrap returns the context error.
func (e *CanceledError) Unwrap() error { return e.Err }

// Model simulates one cascade from a seed set and reports the number of
// activated nodes (including seeds).
type Model interface {
	// Simulate runs a single stochastic cascade with rng and returns the
	// final active count.
	Simulate(seeds []graph.NodeID, rng *parallel.StreamRNG) int
	// Name identifies the model for reporting.
	Name() string
}

// IC is the Independent Cascade model: each newly activated node u gets one
// chance to activate each inactive out-neighbor v with probability w(u,v).
// MaxSteps limits propagation depth (0 = unbounded); the paper's evaluation
// restricts the diffusion to j=1 step.
type IC struct {
	G        *graph.Graph
	MaxSteps int

	pool sync.Pool // *icState, see DESIGN.md §"Scratch arenas"
}

// icState is per-simulation scratch: an epoch-stamped active set plus two
// frontier buffers that swap roles each round. Checked out of the model's
// pool so concurrent Monte-Carlo rounds never share a buffer and repeated
// rounds do zero heap work after warm-up.
type icState struct {
	epoch    []int32
	curEpoch int32
	frontier []graph.NodeID
	next     []graph.NodeID
}

// Name implements Model.
func (m *IC) Name() string { return "ic" }

// Simulate implements Model. Safe for concurrent use; it draws one
// Float64 per arc it tries, in frontier order.
func (m *IC) Simulate(seeds []graph.NodeID, rng *parallel.StreamRNG) int {
	n := m.G.NumNodes()
	s, _ := m.pool.Get().(*icState)
	if s == nil || len(s.epoch) != n {
		s = &icState{epoch: make([]int32, n)}
	}
	defer m.pool.Put(s)
	s.curEpoch++
	if s.curEpoch == 0 { // wrapped: reset lazily
		for i := range s.epoch {
			s.epoch[i] = 0
		}
		s.curEpoch = 1
	}
	active := s.curEpoch
	frontier := s.frontier[:0]
	for _, v := range seeds {
		if s.epoch[v] != active {
			s.epoch[v] = active
			frontier = append(frontier, v)
		}
	}
	count := len(frontier)
	next := s.next[:0]
	for step := 0; len(frontier) > 0; step++ {
		if m.MaxSteps > 0 && step >= m.MaxSteps {
			break
		}
		next = next[:0]
		for _, u := range frontier {
			for _, a := range m.G.Out(u) {
				if s.epoch[a.To] == active {
					continue
				}
				if rng.Float64() < a.Weight {
					s.epoch[a.To] = active
					next = append(next, a.To)
					count++
				}
			}
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next
	return count
}

// LT is the Linear Threshold model: each node draws a uniform threshold and
// activates once the summed weight of its active in-neighbors reaches it.
type LT struct {
	G        *graph.Graph
	MaxSteps int

	pool sync.Pool // *ltState, see DESIGN.md §"Scratch arenas"
}

// ltState is per-simulation scratch for LT. The thresholds are fully
// redrawn every simulation (same draw order as before pooling), so only
// the buffers are reused, never the randomness.
type ltState struct {
	active    []int32
	curEpoch  int32
	threshold []float64
	influence []float64 // accumulated active in-weight
	frontier  []graph.NodeID
	next      []graph.NodeID
}

// Name implements Model.
func (m *LT) Name() string { return "lt" }

// Simulate implements Model. Safe for concurrent use; it draws the n
// thresholds in node order before the cascade starts.
func (m *LT) Simulate(seeds []graph.NodeID, rng *parallel.StreamRNG) int {
	n := m.G.NumNodes()
	s, _ := m.pool.Get().(*ltState)
	if s == nil || len(s.active) != n {
		s = &ltState{
			active:    make([]int32, n),
			threshold: make([]float64, n),
			influence: make([]float64, n),
		}
	}
	defer m.pool.Put(s)
	s.curEpoch++
	if s.curEpoch == 0 { // wrapped: reset lazily
		for i := range s.active {
			s.active[i] = 0
		}
		s.curEpoch = 1
	}
	act := s.curEpoch
	for v := range s.threshold {
		s.threshold[v] = rng.Float64()
		s.influence[v] = 0
	}
	frontier := s.frontier[:0]
	for _, sd := range seeds {
		if s.active[sd] != act {
			s.active[sd] = act
			frontier = append(frontier, sd)
		}
	}
	count := len(frontier)
	next := s.next[:0]
	for step := 0; len(frontier) > 0; step++ {
		if m.MaxSteps > 0 && step >= m.MaxSteps {
			break
		}
		next = next[:0]
		for _, u := range frontier {
			for _, a := range m.G.Out(u) {
				if s.active[a.To] == act {
					continue
				}
				s.influence[a.To] += a.Weight
				if s.influence[a.To] >= s.threshold[a.To] {
					s.active[a.To] = act
					next = append(next, a.To)
					count++
				}
			}
		}
		frontier, next = next, frontier
	}
	s.frontier, s.next = frontier, next
	return count
}

// SIS is the Susceptible-Infectious-Susceptible epidemic model: infected
// nodes infect susceptible out-neighbors with the arc weight as the
// per-step probability and recover (back to susceptible) with probability
// Recovery. The cascade runs for Steps rounds; the result counts nodes
// that were ever infected.
type SIS struct {
	G        *graph.Graph
	Recovery float64
	Steps    int

	pool sync.Pool // *sisState, see DESIGN.md §"Scratch arenas"
}

// sisState is per-simulation scratch for SIS: epoch-stamped infected /
// ever-infected sets, a step-local newly-infected bitset paired with an
// insertion-order list, and the two round buffers.
type sisState struct {
	infected  []int32 // == curEpoch ⇔ currently infected
	ever      []int32 // == curEpoch ⇔ infected at least once this run
	newly     []int32 // == curEpoch ⇔ infected this step (cleared on drain)
	curEpoch  int32
	cur       []graph.NodeID
	next      []graph.NodeID
	newlyList []graph.NodeID
}

// Name implements Model.
func (m *SIS) Name() string { return "sis" }

// Simulate implements Model. Safe for concurrent use. Newly infected
// nodes join the next round in infection order (the historical
// implementation drained a map, so its round order — and therefore the
// exact seeded trajectory — varied between runs; SIS is now deterministic
// given a seed, like IC and LT).
func (m *SIS) Simulate(seeds []graph.NodeID, rng *parallel.StreamRNG) int {
	if m.Steps < 1 {
		panic("diffusion: SIS requires Steps >= 1")
	}
	n := m.G.NumNodes()
	s, _ := m.pool.Get().(*sisState)
	if s == nil || len(s.infected) != n {
		s = &sisState{
			infected: make([]int32, n),
			ever:     make([]int32, n),
			newly:    make([]int32, n),
		}
	}
	defer m.pool.Put(s)
	s.curEpoch++
	if s.curEpoch == 0 { // wrapped: reset lazily
		for i := range s.infected {
			s.infected[i], s.ever[i], s.newly[i] = 0, 0, 0
		}
		s.curEpoch = 1
	}
	ep := s.curEpoch
	count := 0
	for _, sd := range seeds {
		if s.ever[sd] != ep {
			s.infected[sd], s.ever[sd] = ep, ep
			count++
		}
	}
	cur := append(s.cur[:0], seeds...)
	next := s.next[:0]
	newlyList := s.newlyList[:0]
	for step := 0; step < m.Steps && len(cur) > 0; step++ {
		next = next[:0]
		newlyList = newlyList[:0]
		for _, u := range cur {
			for _, a := range m.G.Out(u) {
				if s.infected[a.To] == ep || s.newly[a.To] == ep {
					continue
				}
				if rng.Float64() < a.Weight {
					s.newly[a.To] = ep
					newlyList = append(newlyList, a.To)
				}
			}
		}
		// Recoveries happen after transmission within a round.
		for _, u := range cur {
			if rng.Float64() < m.Recovery {
				s.infected[u] = 0
			} else {
				next = append(next, u)
			}
		}
		for _, v := range newlyList {
			s.newly[v] = 0 // step-local: a later recovery makes v infectable again
			s.infected[v] = ep
			if s.ever[v] != ep {
				s.ever[v] = ep
				count++
			}
			next = append(next, v)
		}
		cur, next = next, cur
	}
	s.cur, s.next, s.newlyList = cur, next, newlyList
	return count
}

// Options tune one Estimate call.
type Options struct {
	// Workers is the worker-pool width: 0 means the process default
	// (parallel.Resolve), 1 forces inline serial execution. Outer-parallel
	// callers (the CELF initial-gain pass) pass 1 so the per-candidate
	// estimates do not nest a second fan-out.
	Workers int
	// Obs, when non-nil, receives one MCBatchDone event carrying the
	// batch's throughput and its cascade-size histogram. A nil observer
	// adds one predictable branch per round and no allocations.
	Obs obs.Observer
}

// Estimate runs rounds Monte Carlo simulations of model from seeds and
// returns the mean spread. Simulations fan out on the shared worker pool;
// the result is deterministic for any worker count because round r draws
// from the StreamRNG stream (seed, r), whichever worker runs it, and the
// per-round spreads are integers (an order-independent sum). Callers that
// pass one seed to several estimates (CELF's candidates) therefore get
// common random numbers: round r sees the same stream in each.
//
// When ctx carries a span or opts.Obs is set, the batch runs inside a
// "diffusion.estimate" span rooted under the context's span (or fresh on
// opts.Obs), inheriting the context's trace ID; a nil opts.Obs with a
// span-carrying context still journals — the span's observer receives
// the MCBatchDone event. Otherwise the call opens no span and allocates
// nothing in steady state.
//
// Cancellation is checked at round-chunk boundaries: when ctx fires
// mid-batch, Estimate stops within a few rounds and returns a
// *CanceledError recording the partial round count (plus an
// obs.Canceled event with the observed cancellation latency). A batch
// that completes returns the same mean, bit for bit, under any context
// and at any worker count. ctx must be non-nil.
func Estimate(ctx context.Context, model Model, seeds []graph.NodeID, rounds int, seed int64, opts Options) (float64, error) {
	span := obs.StartSpanCtx(ctx, opts.Obs, "diffusion.estimate")
	defer span.End()
	o := opts.Obs
	if o == nil {
		o = span.Observer()
	}
	if rounds < 1 {
		panic(fmt.Sprintf("diffusion: Estimate rounds = %d", rounds))
	}
	start := time.Now()
	workers := parallel.Resolve(opts.Workers)
	if workers > rounds {
		workers = rounds
	}
	st := estPool.Get().(*estState)
	st.model, st.seeds, st.seed = model, seeds, seed
	st.reset(workers, o != nil)
	clk := obs.WatchCancel(ctx)
	_, err := parallel.For(ctx, workers, rounds, 8, st.body)
	clk.Stop()
	var sum, done int64
	for i := range st.slots {
		sum += st.slots[i].total
		done += st.slots[i].done
	}
	if err != nil {
		obs.Emit(o, obs.Canceled{
			Phase:   "estimate",
			Done:    int(done),
			Total:   rounds,
			Reason:  err.Error(),
			Latency: clk.Latency(),
		})
		st.model, st.seeds = nil, nil
		estPool.Put(st)
		return 0, &CanceledError{Done: int(done), Total: rounds, Err: err}
	}
	mean := float64(sum) / float64(rounds)
	if o != nil {
		ev := obs.MCBatchDone{
			Model:      model.Name(),
			Rounds:     rounds,
			MeanSpread: mean,
			Elapsed:    time.Since(start),
		}
		if secs := ev.Elapsed.Seconds(); secs > 0 {
			ev.SimsPerSec = float64(rounds) / secs
		}
		for w := range st.slots {
			for i, c := range st.slots[w].sizes {
				ev.SizeBuckets[i] += c
			}
		}
		o.Emit(ev)
	}
	st.model, st.seeds = nil, nil // don't pin caller data in the pool
	estPool.Put(st)
	return mean, nil
}

// estState is the reusable machinery behind Estimate: one slot per
// worker, whose stream is positioned at (seed, r) for each round r it
// runs, and the worker closure built once, so steady-state Estimate calls
// allocate nothing.
type estState struct {
	model Model
	seeds []graph.NodeID
	seed  int64
	obsOn bool
	slots []estSlot
	body  func(w, lo, hi int)
}

// estSlot is one worker's share of a batch. No cache line may hold one
// worker's stream and anything another worker writes: a bare
// []StreamRNG, streams sharing lines, ran a 1,000-round IC estimate at
// width 2 about 1.7× slower. The pad keeps the next slot's stream off
// the line of this slot's last histogram buckets.
type estSlot struct {
	rng   parallel.StreamRNG
	total int64
	done  int64 // rounds executed (exact: chunks never stop mid-chunk)
	sizes [obs.NumBuckets]uint64
	_     [56]byte
}

var estPool = sync.Pool{New: func() any {
	st := &estState{}
	st.body = func(w, lo, hi int) {
		sl := &st.slots[w]
		for r := lo; r < hi; r++ {
			sl.rng.SetStream(st.seed, uint64(r))
			n := st.model.Simulate(st.seeds, &sl.rng)
			sl.total += int64(n)
			if st.obsOn {
				sl.sizes[obs.BucketIndex(float64(n))]++
			}
		}
		sl.done += int64(hi - lo)
	}
	return st
}}

func (st *estState) reset(workers int, obsOn bool) {
	if cap(st.slots) < workers {
		st.slots = make([]estSlot, workers)
	}
	st.slots = st.slots[:workers]
	clear(st.slots)
	st.obsOn = obsOn
}
