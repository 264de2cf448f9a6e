package parallel

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

// Stream returns stream (seed, i) of StreamRNG's family as a *rand.Rand,
// the reference StreamRNG's draws must match.
func Stream(seed int64, i uint64) *rand.Rand {
	var r StreamRNG
	r.SetStream(seed, i)
	return rand.New(&r)
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 33} {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 3, 64, 5000} {
				hits := make([]int32, n)
				st, _ := For(context.Background(), workers, n, grain, func(w, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d hit %d times", workers, n, grain, i, h)
					}
				}
				if n > 0 && st.Chunks == 0 {
					t.Fatalf("workers=%d n=%d grain=%d: zero chunks", workers, n, grain)
				}
			}
		}
	}
}

func TestForWorkerIndexInRange(t *testing.T) {
	var bad atomic.Int64
	st, _ := For(context.Background(), 4, 100, 1, func(w, lo, hi int) {
		if w < 0 || w >= 4 {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("worker index out of range")
	}
	if st.Workers < 1 || st.Workers > 4 {
		t.Fatalf("Stats.Workers = %d", st.Workers)
	}
}

func TestForDeterministicOutput(t *testing.T) {
	// Disjoint index writes must produce identical results at any worker
	// count — the contract every call site in the repo depends on.
	n := 4096
	ref := make([]uint64, n)
	For(context.Background(), 1, n, 7, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			ref[i] = Stream(42, uint64(i)).Uint64()
		}
	})
	for _, workers := range []int{2, 5, 16} {
		got := make([]uint64, n)
		For(context.Background(), workers, n, 7, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = Stream(42, uint64(i)).Uint64()
			}
		})
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: index %d differs", workers, i)
			}
		}
	}
}

func TestStreamsIndependentAndStable(t *testing.T) {
	a1 := Stream(1, 0)
	a2 := Stream(1, 0)
	b := Stream(1, 1)
	c := Stream(2, 0)
	x1, x2 := a1.Uint64(), a2.Uint64()
	if x1 != x2 {
		t.Fatal("same (seed, stream) must replay identically")
	}
	if y := b.Uint64(); y == x1 {
		t.Fatal("adjacent streams collide on first draw")
	}
	if z := c.Uint64(); z == x1 {
		t.Fatal("different seeds collide on first draw")
	}
	// Float64 must be in [0, 1) — exercised because RR-set sampling
	// compares it against arc weights.
	for i := 0; i < 1000; i++ {
		if f := a1.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestStreamUniformity(t *testing.T) {
	// Coarse sanity: across many streams, first draws should fill all
	// 16 top-nibble buckets (catches catastrophic mixing bugs).
	var buckets [16]int
	for i := 0; i < 4096; i++ {
		buckets[Stream(7, uint64(i)).Uint64()>>60]++
	}
	for b, c := range buckets {
		if c == 0 {
			t.Fatalf("bucket %d empty", b)
		}
	}
}

func TestLimitAndResolve(t *testing.T) {
	old := Limit()
	SetLimit(3)
	if Limit() != 3 {
		t.Fatalf("Limit = %d after SetLimit(3)", Limit())
	}
	if Resolve(0) != 3 || Resolve(5) != 5 {
		t.Fatal("Resolve precedence wrong")
	}
	SetLimit(0)
	if Limit() < 1 {
		t.Fatal("default Limit must be >= 1")
	}
	_ = old
}

func TestStatsImbalance(t *testing.T) {
	if (Stats{}).Imbalance() != 0 {
		t.Fatal("zero Stats imbalance")
	}
	s := Stats{Workers: 2, Chunks: 10, MaxChunks: 9, MinChunks: 1}
	if got := s.Imbalance(); got != 0.8 {
		t.Fatalf("imbalance = %v", got)
	}
}

// TestForHammer drives many concurrent For calls from competing
// goroutines; run with -race to catch pool-layer data races.
func TestForHammer(t *testing.T) {
	var wg = make(chan struct{}, 8)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg <- struct{}{}
		go func(g int) {
			defer func() { <-wg }()
			sum := int64(0)
			for rep := 0; rep < 20; rep++ {
				parts := make([]int64, 16)
				For(context.Background(), 4, 500, 9, func(w, lo, hi int) {
					var local int64
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					atomic.AddInt64(&parts[w], local)
				})
				sum = 0
				for _, p := range parts {
					sum += p
				}
			}
			if sum != 500*499/2 {
				done <- errSum(sum)
				return
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type errSum int64

func (e errSum) Error() string { return "bad hammer sum" }

// TestStreamRNGMatchesStream checks that StreamRNG's draws equal
// rand.Rand's on Stream(seed, i), interleaved so any divergence in how
// many source values a draw consumes shows up: Intn over powers of two,
// over bounds that reject often (2³⁰+1 rejects about half its draws),
// and over 2³¹−1.
func TestStreamRNGMatchesStream(t *testing.T) {
	bounds := []int{1, 2, 1 << 10, 3, 1000, 15000, 1<<30 + 1, 1<<31 - 1}
	var r StreamRNG
	for i := uint64(0); i < 2000; i++ {
		seed := int64(i%7) - 3
		r.SetStream(seed, i)
		ref := Stream(seed, i)
		for j, n := range bounds {
			if got, want := r.Intn(n), ref.Intn(n); got != want {
				t.Fatalf("stream %d draw %d: Intn(%d) = %d, want %d", i, j, n, got, want)
			}
			if got, want := r.Float64(), ref.Float64(); got != want {
				t.Fatalf("stream %d draw %d: Float64 = %v, want %v", i, j, got, want)
			}
			if got, want := r.Int63(), ref.Int63(); got != want {
				t.Fatalf("stream %d draw %d: Int63 = %d, want %d", i, j, got, want)
			}
		}
	}
}

// TestStreamRNGSource pins StreamRNG as a rand.Source64: the zero value
// yields SplitMix64's reference sequence from state 0, Seed is stream
// (seed, 0), and SetStream under a rand.Rand repositions it exactly —
// the trainer re-keys one rand.New(&r) per purpose and iteration.
func TestStreamRNGSource(t *testing.T) {
	var r StreamRNG
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d from state 0 = %#x, want %#x", i, got, want)
		}
	}
	r.Seed(9)
	if got, want := r.Uint64(), Stream(9, 0).Uint64(); got != want {
		t.Fatalf("Seed(9) draws %#x, want stream (9, 0)'s %#x", got, want)
	}
	rng := rand.New(&r)
	draws := func() []float64 {
		return []float64{rng.NormFloat64(), float64(rng.Intn(1000)), rng.Float64(),
			rng.ExpFloat64(), float64(rng.Perm(5)[0]), float64(rng.Uint64() >> 11)}
	}
	r.SetStream(3, 5)
	first := draws()
	r.SetStream(4, 5)
	draws()
	r.SetStream(3, 5)
	again := draws()
	ref := Stream(3, 5)
	fresh := []float64{ref.NormFloat64(), float64(ref.Intn(1000)), ref.Float64(),
		ref.ExpFloat64(), float64(ref.Perm(5)[0]), float64(ref.Uint64() >> 11)}
	for i := range first {
		if first[i] != again[i] || first[i] != fresh[i] {
			t.Fatalf("draw %d: %v, repositioned %v, fresh %v", i, first[i], again[i], fresh[i])
		}
	}
}

// TestForSteadyStateAllocs pins For's own cost per call: nothing on the
// inline path, and at most 3 + 2w objects at width w — the chunk
// counters, cursor and wait group, plus two per worker goroutine. The
// fan-out floors of GEMM, Monte-Carlo estimation, RR-set generation and
// DP-SGD are built from this count.
func TestForSteadyStateAllocs(t *testing.T) {
	var sum atomic.Int64
	fn := func(_, lo, hi int) { sum.Add(int64(hi - lo)) }
	for _, w := range []int{1, 2, 4, 8} {
		run := func() { For(context.Background(), w, 1024, 16, fn) }
		run()
		got := testing.AllocsPerRun(20, run)
		want := 0
		if w > 1 {
			want = 3 + 2*w
		}
		if got > float64(want) {
			t.Errorf("For at width %d allocates %v objects/op, want <= %d", w, got, want)
		}
	}
}
