package parallel

// Scratch is a typed per-worker scratch arena for parallel.For
// callbacks: one lazily-built value of T per worker slot, keyed by the
// worker index fn receives. It exists so worker-local temporaries (tapes,
// gradient buffers, frontier queues, RNGs) are built once and reused
// across chunks and across calls instead of being per-call makes.
//
// Ownership rules (see DESIGN.md §"Scratch arenas"):
//
//   - Within one For call, slot w is owned exclusively by the goroutine
//     running worker index w; no locking is needed to mutate it.
//   - Between For calls on the same Scratch, any goroutine may touch any
//     slot, but never concurrently with a For that uses the Scratch.
//   - Values handed out by Get stay owned by the Scratch. Results that
//     outlive the loop must be copied out, never aliased.
//
// Grow must be called (or the Scratch otherwise warmed to the width) on
// the coordinating goroutine before fanning out: Get itself only
// lazily fills slot w and is safe because distinct workers touch
// distinct slots, but growing the backing slice from inside worker
// goroutines would race. The zero Scratch with a New func set via
// NewScratch is ready to use.
type Scratch[T any] struct {
	// New builds a fresh per-worker value the first time a slot is used.
	// It must not retain references shared across slots unless those are
	// themselves safe for concurrent use.
	New func() T

	slots []T
	init  []bool
}

// NewScratch returns a Scratch whose slots are built by newFn on first use.
func NewScratch[T any](newFn func() T) *Scratch[T] {
	return &Scratch[T]{New: newFn}
}

// Grow ensures the Scratch has at least `workers` slots, allocating (but
// not initializing) the backing arrays. Call it with the resolved worker
// count before For so that Get never has to grow the slice from inside a
// worker goroutine.
func (s *Scratch[T]) Grow(workers int) {
	if workers <= len(s.slots) {
		return
	}
	slots := make([]T, workers)
	copy(slots, s.slots)
	s.slots = slots
	init := make([]bool, workers)
	copy(init, s.init)
	s.init = init
}

// Get returns worker w's scratch value, building it with New on first
// use. w must be < the width passed to the last Grow. Distinct workers
// access distinct slots, so concurrent Get calls from a For body are
// race-free without locking.
func (s *Scratch[T]) Get(w int) T {
	if !s.init[w] {
		s.slots[w] = s.New()
		s.init[w] = true
	}
	return s.slots[w]
}

// Len reports the current slot capacity (the largest width Grow saw).
func (s *Scratch[T]) Len() int { return len(s.slots) }

// Each calls fn over every initialized slot in ascending worker order.
// Use it for fixed-order reductions of per-worker accumulators; never
// call it concurrently with a For that uses this Scratch.
func (s *Scratch[T]) Each(fn func(w int, v T)) {
	for w := range s.slots {
		if s.init[w] {
			fn(w, s.slots[w])
		}
	}
}
