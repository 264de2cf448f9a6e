package im

import (
	"math"
	"math/rand"
	"testing"

	"privim/internal/diffusion"
	"privim/internal/graph"
)

func TestIMMPicksBothHubs(t *testing.T) {
	g := twoStars()
	s := &IMM{G: g, Seed: 1}
	seeds := s.Select(2)
	if err := ValidateSeeds(seeds, g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	if !seedsContain(seeds, 0, 6) {
		t.Fatalf("IMM seeds = %v, want hubs {0, 6}", seeds)
	}
}

func TestIMMEdgeCases(t *testing.T) {
	g := twoStars()
	s := &IMM{G: g, Seed: 1}
	if got := s.Select(0); got != nil {
		t.Fatalf("Select(0) = %v", got)
	}
	if got := s.Select(100); len(got) != g.NumNodes() {
		t.Fatalf("Select(100) = %d seeds, want %d", len(got), g.NumNodes())
	}
	// Edgeless graph must terminate and fill deterministically.
	empty := graph.NewWithNodes(5, true)
	se := &IMM{G: empty, Seed: 1, MaxSamples: 100}
	got := se.Select(3)
	if len(got) != 3 {
		t.Fatalf("edgeless Select = %v", got)
	}
	if err := ValidateSeeds(got, 5); err != nil {
		t.Fatal(err)
	}
}

func TestIMMDefaultsApplied(t *testing.T) {
	// Out-of-range epsilon/ell fall back to defaults and still work.
	g := twoStars()
	s := &IMM{G: g, Epsilon: 5, Ell: -2, Seed: 1}
	seeds := s.Select(2)
	if !seedsContain(seeds, 0, 6) {
		t.Fatalf("IMM with defaulted params seeds = %v", seeds)
	}
}

func TestIMMComparableToCELF(t *testing.T) {
	// On a random graph IMM's spread should land close to CELF's (within
	// 15% — both carry approximation guarantees).
	rng := rand.New(rand.NewSource(8))
	g := graph.NewWithNodes(60, true)
	for i := 0; i < 240; i++ {
		u, v := graph.NodeID(rng.Intn(60)), graph.NodeID(rng.Intn(60))
		if u != v {
			g.AddEdge(u, v, 0.3)
		}
	}
	model := &diffusion.IC{G: g}
	celf := &CELF{Model: model, Rounds: 200, Seed: 3, NumNodes: 60}
	imm := &IMM{G: g, Seed: 3}
	celfSpread := spread(model, celf.Select(5), 2000, 9)
	immSpread := spread(model, imm.Select(5), 2000, 9)
	if immSpread < 0.85*celfSpread {
		t.Fatalf("IMM spread %v too far below CELF %v", immSpread, celfSpread)
	}
}

func TestLogChooseF(t *testing.T) {
	if got := math.Exp(logChooseF(10, 3)); math.Abs(got-120) > 1e-9 {
		t.Fatalf("C(10,3) = %v", got)
	}
	if !math.IsInf(logChooseF(3, 5), -1) {
		t.Fatal("C(3,5) should be -Inf")
	}
}

func TestRRIndexMaxCoverEmpty(t *testing.T) {
	ix := newRRIndex(3)
	seeds, frac := ix.maxCover(3, 2)
	if frac != 0 || len(seeds) != 2 {
		t.Fatalf("empty index maxCover = %v, %v", seeds, frac)
	}
}
