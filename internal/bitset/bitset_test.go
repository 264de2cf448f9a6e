package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	s := New(130) // spans three words
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatalf("fresh set: len=%d count=%d", s.Len(), s.Count())
	}
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d, want 4", s.Count())
	}
	if s.Contains(1) || s.Contains(-1) || s.Contains(200) {
		t.Fatal("spurious membership")
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 63, 64, 129} {
		s.Add(i)
	}
	s.Remove(63)
	s.Remove(129)
	s.Remove(5) // clearing an unset bit is a no-op
	if s.Count() != 2 || s.Contains(63) || s.Contains(129) || !s.Contains(0) || !s.Contains(64) {
		t.Fatalf("after removals: count=%d", s.Count())
	}
	for _, i := range []int{-1, 130} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Remove(%d) should panic", i)
				}
			}()
			s.Remove(i)
		}()
	}
}

func TestAddPanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) should panic", i)
				}
			}()
			s.Add(i)
		}()
	}
}

func TestOrAndCountOrWith(t *testing.T) {
	a, b := New(100), New(100)
	a.Add(1)
	a.Add(70)
	b.Add(70)
	b.Add(99)
	if got := a.CountOrWith(b); got != 3 {
		t.Fatalf("CountOrWith = %d, want 3", got)
	}
	// CountOrWith must not mutate.
	if a.Count() != 2 || b.Count() != 2 {
		t.Fatal("CountOrWith mutated operands")
	}
	a.Or(b)
	if a.Count() != 3 || !a.Contains(99) {
		t.Fatalf("Or result wrong: count=%d", a.Count())
	}
}

func TestMismatchedCapacityPanics(t *testing.T) {
	a, b := New(10), New(20)
	for _, fn := range []func(){
		func() { a.Or(b) },
		func() { a.CountOrWith(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: Count(a ∪ b) == |set-union of indices| for random sets.
func TestOrCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 200
		a, b := New(n), New(n)
		ref := map[int]bool{}
		for i := 0; i < 80; i++ {
			x := rng.Intn(n)
			a.Add(x)
			ref[x] = true
		}
		for i := 0; i < 80; i++ {
			x := rng.Intn(n)
			b.Add(x)
			ref[x] = true
		}
		if a.CountOrWith(b) != len(ref) {
			return false
		}
		a.Or(b)
		return a.Count() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
