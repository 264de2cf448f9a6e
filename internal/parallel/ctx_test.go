package parallel

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// A completed call under a cancelable context must execute exactly the
// work a call under context.Background does — same index coverage, so
// call sites writing disjoint ranges get bit-identical output at any
// worker count.
func TestForCancelableMatchesBackground(t *testing.T) {
	const n = 1003
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 2, 4, 7} {
		ref := make([]float64, n)
		For(context.Background(), workers, n, 16, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				ref[i] = math.Sqrt(float64(i)) * 1.5
			}
		})
		got := make([]float64, n)
		st, err := For(ctx, workers, n, 16, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = math.Sqrt(float64(i)) * 1.5
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		if want := (n + 15) / 16; st.Chunks != want {
			t.Fatalf("workers=%d: ran %d chunks, want %d", workers, st.Chunks, want)
		}
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
				t.Fatalf("workers=%d: output diverges at %d: %v vs %v", workers, i, ref[i], got[i])
			}
		}
	}
}

// A context canceled before the call starts must stop the fan-out
// without running any chunk.
func TestForPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		st, err := For(ctx, workers, 1000, 10, func(_, _, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got != 0 {
			t.Fatalf("workers=%d: %d chunks ran on a dead context", workers, got)
		}
		if st.Chunks != 0 {
			t.Fatalf("workers=%d: Stats.Chunks = %d, want 0", workers, st.Chunks)
		}
	}
}

// Canceling mid-flight stops the remaining chunks: with a serial worker
// the check runs before every chunk, so canceling inside chunk 0 means
// only chunk 0 executes.
func TestForSerialCancelStopsAtChunkBoundary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	st, err := For(ctx, 1, 100, 10, func(_, _, _ int) {
		ran.Add(1)
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d chunks ran after cancel, want exactly 1", got)
	}
	if st.Chunks != 1 {
		t.Fatalf("Stats.Chunks = %d, want 1", st.Chunks)
	}
}

// Cancellation latency: with chunks that take ~1ms, a cancel must
// surface within a small multiple of one grain of work per worker, far
// under the 2s budget the serving layer promises.
func TestForCancelLatency(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := For(ctx, 4, 100000, 1, func(_, _, _ int) {
		time.Sleep(time.Millisecond)
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancel took %v, want well under 2s", elapsed)
	}
}
