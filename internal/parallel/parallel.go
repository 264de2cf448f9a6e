// Package parallel is the shared worker-pool layer behind every compute
// kernel in the repo: blocked GEMM row panels (internal/tensor), sparse
// aggregation rows (internal/autodiff), per-sample DP-SGD passes
// (internal/privim), Monte-Carlo cascade rounds (internal/diffusion), and
// RR-set / marginal-gain fan-outs (internal/im).
//
// Two invariants make it safe to thread through DP code:
//
//   - Determinism: For splits [0, n) into fixed grain-sized chunks and
//     workers claim chunks dynamically, so *which* goroutine runs a chunk
//     varies — but callers only ever write to disjoint index ranges (or
//     reduce with order-independent integer sums), so results are
//     bit-for-bit identical at any worker count. Randomized work draws its
//     randomness from a StreamRNG positioned at (seed, i), a per-index
//     SplitMix64 stream, never from a shared sequential RNG.
//   - Observability: every For returns Stats (workers used, chunks run per
//     worker, imbalance), so speedups are measurable rather than asserted.
//
// The process-wide worker cap comes from, in priority order: SetLimit
// (the -workers flag), the PRIVIM_WORKERS environment variable, and
// GOMAXPROCS.
package parallel

import (
	"context"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

var limit atomic.Int64

func init() {
	if s := os.Getenv("PRIVIM_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			limit.Store(int64(n))
		}
	}
}

// SetLimit sets the process-wide default worker cap (the -workers flag).
// n <= 0 restores the GOMAXPROCS / PRIVIM_WORKERS default.
func SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	limit.Store(int64(n))
}

// Limit returns the process-wide default worker count: the SetLimit /
// PRIVIM_WORKERS override when present, GOMAXPROCS otherwise.
func Limit() int {
	if n := limit.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Resolve maps a per-call worker request to an effective count: n > 0 is
// honored as-is, n <= 0 falls back to Limit().
func Resolve(n int) int {
	if n > 0 {
		return n
	}
	return Limit()
}

// Stats describes one For call, for obs counters and tests.
type Stats struct {
	// Workers is the number of goroutines that ran chunks (1 = inline).
	Workers int
	// Chunks is the number of grain-sized index ranges executed.
	Chunks int
	// MaxChunks and MinChunks are the largest and smallest per-worker
	// chunk counts; their gap measures scheduling imbalance.
	MaxChunks, MinChunks int
}

// Imbalance returns (max−min)/chunks ∈ [0, 1]: 0 when every worker ran
// the same number of chunks, approaching 1 when one worker ran nearly
// all of them.
func (s Stats) Imbalance() float64 {
	if s.Chunks == 0 {
		return 0
	}
	return float64(s.MaxChunks-s.MinChunks) / float64(s.Chunks)
}

// For splits [0, n) into chunks of size grain (grain < 1 means one chunk
// per worker, rounded up) and runs fn(worker, lo, hi) over them on up to
// `workers` goroutines (0 = Limit()). Chunks are claimed dynamically via
// an atomic cursor in ascending order, so fast workers absorb slow
// chunks. The worker index passed to fn is stable within a call and in
// [0, Stats.Workers); use it to key per-worker scratch, never to derive
// randomness or output ordering. For returns after every claimed chunk
// finished. ctx must be non-nil; callers that cannot be canceled pass
// context.Background().
//
// fn must write only to locations indexed by [lo, hi) (or accumulate
// into per-worker slots that are later reduced in a fixed order) for the
// result to be deterministic — every call site in this repo does.
//
// Cancellation is checked at every chunk boundary — before each dynamic
// chunk claim on the parallel path, before each chunk on the inline
// serial path — so a canceled context stops the fan-out within one grain
// of work per worker. A call that returns a nil error executed every
// chunk, so its output is bit-for-bit identical at any worker count and
// under any context. When the context is canceled mid-flight, For
// returns ctx.Err() and the output arrays hold an unspecified mix of
// written and unwritten ranges — callers must treat partial output as
// garbage, never publish it.
//
// Stats always reflects the chunks actually executed, so cancellation
// latency is observable: a canceled call reports Chunks < the full chunk
// count.
func For(ctx context.Context, workers, n, grain int, fn func(worker, lo, hi int)) (Stats, error) {
	if n <= 0 {
		return Stats{}, ctx.Err()
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if grain < 1 {
		grain = (n + workers - 1) / workers
	}
	chunks := (n + grain - 1) / grain
	if workers <= 1 || chunks == 1 {
		// Serial inline path: iterate chunk-by-chunk so a single-threaded
		// caller still observes cancellation at grain granularity.
		for c := 0; c < chunks; c++ {
			if err := ctx.Err(); err != nil {
				return Stats{Workers: 1, Chunks: c, MaxChunks: c, MinChunks: c}, err
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
		return Stats{Workers: 1, Chunks: chunks, MaxChunks: chunks, MinChunks: chunks}, nil
	}
	if workers > chunks {
		workers = chunks
	}
	// Capture a never-reassigned copy: capturing grain itself (assigned
	// above) would force it to the heap in For's prologue, costing one
	// allocation even on the inline serial path.
	sz := grain
	var cursor atomic.Int64
	ran := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * sz
				hi := lo + sz
				if hi > n {
					hi = n
				}
				fn(w, lo, hi)
				ran[w]++
			}
		}(w)
	}
	wg.Wait()
	st := Stats{Workers: workers, MinChunks: ran[0]}
	for _, r := range ran {
		st.Chunks += r
		if r > st.MaxChunks {
			st.MaxChunks = r
		}
		if r < st.MinChunks {
			st.MinChunks = r
		}
	}
	if st.Chunks < chunks {
		// The only way to leave chunks unclaimed is a context error; by
		// the time every worker has exited, ctx.Err() is non-nil.
		return st, ctx.Err()
	}
	// Every chunk ran: the output is complete and valid even if the
	// context was canceled an instant after the last chunk finished.
	return st, nil
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StreamRNG draws from the i-th deterministic RNG stream of a seeded
// family: independent per-index streams let parallel loops consume
// randomness without any cross-worker ordering, so output is identical at
// any worker count. Streams with the same (seed, i) are identical;
// distinct indices decorrelate through a double SplitMix64 avalanche.
// SetStream repositions it in O(1) without allocating (rand.NewSource
// warms up 607 words), so hot loops that burn one stream per work item
// (RR-set draws, Monte-Carlo rounds) keep one StreamRNG per worker.
//
// It is a rand.Source64 over a SplitMix64 sequence. Code written against
// *rand.Rand draws from rand.New(&r), and since rand.Rand keeps no draw
// state outside Read, SetStream under it repositions exactly. Its own
// draw methods skip rand.Rand's interface call and return exactly what
// the rand.Rand methods of the same name return over it: Go 1
// compatibility freezes how those methods consume a source. The zero
// value is positioned at state 0; call SetStream first. Not safe for
// concurrent use; keep one per worker.
type StreamRNG struct{ state uint64 }

// SetStream positions r at the start of stream (seed, i).
func (r *StreamRNG) SetStream(seed int64, i uint64) {
	r.state = splitmix64(splitmix64(uint64(seed)) + i)
}

// Seed is rand.Source's Seed: it positions r at stream (seed, 0).
func (r *StreamRNG) Seed(seed int64) { r.SetStream(seed, 0) }

// Uint64 is rand.Source64's Uint64: the next SplitMix64 output.
func (r *StreamRNG) Uint64() uint64 {
	x := r.state
	r.state += 0x9e3779b97f4a7c15
	return splitmix64(x)
}

// Int63 is rand.Rand.Int63: a non-negative 63-bit integer.
func (r *StreamRNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 is rand.Rand.Float64: a float in [0, 1), redrawing the rare
// Int63 that rounds up to 1.
func (r *StreamRNG) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn for 0 < n < 2³¹ (its Int31n path): an int in
// [0, n), rejecting the biased top of the 31-bit range.
func (r *StreamRNG) Intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		panic("parallel: StreamRNG.Intn argument outside (0, 2^31)")
	}
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(r.Int63()>>32) & (m - 1))
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(m))
	v := int32(r.Int63() >> 32)
	for v > limit {
		v = int32(r.Int63() >> 32)
	}
	return int(v % m)
}
