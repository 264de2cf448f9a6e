// Package bitset provides a dense fixed-size bit set used by the
// snapshot-based influence solvers to hold per-world reachability sets:
// unions and population counts over thousands of nodes reduce to a few
// word operations.
package bitset

import (
	"fmt"
	"math/bits"
)

// Set is a fixed-capacity bit set. The zero value is unusable; call New.
type Set struct {
	n     int
	words []uint64
}

// New returns a set holding bits 0..n-1, all clear.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: New(%d)", n))
	}
	return &Set{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the capacity n.
func (s *Set) Len() int { return s.n }

// Add sets bit i.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Add(%d) capacity %d", i, s.n))
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Remove clears bit i. Paired with Add it lets scratch sets reset in time
// proportional to the bits touched rather than the capacity — the trick the
// RR-set sampler in internal/im relies on to stay allocation-free per draw.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Remove(%d) capacity %d", i, s.n))
	}
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Or merges o into s (s |= o). Capacities must match.
func (s *Set) Or(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: Or capacity %d vs %d", s.n, o.n))
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountOrWith returns |s ∪ o| without materializing the union.
func (s *Set) CountOrWith(o *Set) int {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: CountOrWith capacity %d vs %d", s.n, o.n))
	}
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w | o.words[i])
	}
	return c
}

// Clear resets all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}
