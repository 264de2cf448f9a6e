package parallel

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestScratchLazyInit(t *testing.T) {
	var built atomic.Int64
	s := NewScratch(func() []int {
		built.Add(1)
		return make([]int, 0, 8)
	})
	s.Grow(4)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	_ = s.Get(0)
	_ = s.Get(0)
	_ = s.Get(2)
	if got := built.Load(); got != 2 {
		t.Fatalf("New ran %d times, want 2 (lazy, once per touched slot)", got)
	}
}

func TestScratchGrowPreservesSlots(t *testing.T) {
	s := NewScratch(func() *int { v := new(int); return v })
	s.Grow(2)
	p0 := s.Get(0)
	*p0 = 42
	s.Grow(8)
	if got := s.Get(0); got != p0 || *got != 42 {
		t.Fatalf("Grow dropped slot 0: got %p=%d, want %p=42", got, *got, p0)
	}
	s.Grow(3) // shrinking request is a no-op
	if s.Len() != 8 {
		t.Fatalf("Len = %d after no-op Grow, want 8", s.Len())
	}
}

func TestScratchPerWorkerIsolationUnderFor(t *testing.T) {
	type buf struct{ sum int64 }
	s := NewScratch(func() *buf { return new(buf) })
	const workers, n = 4, 10_000
	s.Grow(workers)
	for rep := 0; rep < 10; rep++ {
		s.Each(func(w int, b *buf) { b.sum = 0 })
		For(context.Background(), workers, n, 64, func(w, lo, hi int) {
			b := s.Get(w)
			for i := lo; i < hi; i++ {
				b.sum += int64(i)
			}
		})
		var total int64
		s.Each(func(w int, b *buf) { total += b.sum })
		if total != n*(n-1)/2 {
			t.Fatalf("rep %d: per-worker sums total %d, want %d", rep, total, n*(n-1)/2)
		}
	}
}

func TestScratchEachOrderAndSkipsUninitialized(t *testing.T) {
	s := NewScratch(func() int { return 7 })
	s.Grow(5)
	_ = s.Get(3)
	_ = s.Get(1)
	var order []int
	s.Each(func(w int, v int) {
		if v != 7 {
			t.Fatalf("slot %d holds %d, want 7", w, v)
		}
		order = append(order, w)
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("Each visited %v, want [1 3] in ascending order", order)
	}
}

func TestScratchZeroAllocSteadyState(t *testing.T) {
	s := NewScratch(func() []float64 { return make([]float64, 16) })
	s.Grow(2)
	_ = s.Get(0)
	_ = s.Get(1)
	allocs := testing.AllocsPerRun(100, func() {
		b := s.Get(0)
		b[0]++
		b = s.Get(1)
		b[0]++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get allocates %.1f/op, want 0", allocs)
	}
}
