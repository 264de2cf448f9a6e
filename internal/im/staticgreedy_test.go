package im

import (
	"math"
	"math/rand"
	"testing"

	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/graph"
)

func TestStaticGreedyPicksBothHubs(t *testing.T) {
	g := twoStars()
	s := &StaticGreedy{G: g, Worlds: 10, Seed: 1}
	seeds := s.Select(2)
	if err := ValidateSeeds(seeds, g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	if !seedsContain(seeds, 0, 6) {
		t.Fatalf("static greedy seeds = %v, want hubs", seeds)
	}
}

func TestStaticGreedyDeterministicWorld(t *testing.T) {
	// With w=1 every world equals the full graph, so one world suffices
	// and the result must match deterministic CELF exactly in spread.
	g := twoStars()
	sg := &StaticGreedy{G: g, Worlds: 1, Seed: 2}
	celf := &CELF{Model: &diffusion.IC{G: g}, Rounds: 1, Seed: 2, NumNodes: g.NumNodes()}
	model := &diffusion.IC{G: g}
	a := spread(model, sg.Select(2), 1, 3)
	b := spread(model, celf.Select(2), 1, 3)
	if a != b {
		t.Fatalf("static greedy spread %v != CELF spread %v", a, b)
	}
}

func TestStaticGreedyHandlesCycles(t *testing.T) {
	// A strongly connected cycle: one seed reaches everything.
	b := graph.NewBuilder(6, true)
	for v := 0; v < 6; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%6), 1)
	}
	g := b.Build()
	s := &StaticGreedy{G: g, Worlds: 3, Seed: 4}
	seeds := s.Select(1)
	if got := s.ExpectedSpread(seeds); got != 6 {
		t.Fatalf("cycle spread = %v, want 6", got)
	}
}

func TestStaticGreedyMatchesMonteCarloSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := dataset.BarabasiAlbert(120, 3, rng)
	g.SetUniformWeights(0.2)
	s := &StaticGreedy{G: g, Worlds: 400, Seed: 6}
	seeds := s.Select(5)
	snapshot := s.ExpectedSpread(seeds)
	mc := spread(&diffusion.IC{G: g}, seeds, 4000, 7)
	if math.Abs(snapshot-mc) > 0.15*mc {
		t.Fatalf("snapshot spread %v vs Monte Carlo %v differ beyond 15%%", snapshot, mc)
	}
}

func TestStaticGreedyCompetitiveWithCELF(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := dataset.BarabasiAlbert(150, 3, rng)
	g.SetUniformWeights(0.15)
	model := &diffusion.IC{G: g}
	sg := &StaticGreedy{G: g, Worlds: 200, Seed: 9}
	celf := &CELF{Model: model, Rounds: 100, Seed: 9, NumNodes: g.NumNodes()}
	sgSpread := spread(model, sg.Select(5), 3000, 10)
	celfSpread := spread(model, celf.Select(5), 3000, 10)
	if sgSpread < 0.9*celfSpread {
		t.Fatalf("static greedy spread %v too far below CELF %v", sgSpread, celfSpread)
	}
}

func TestStaticGreedyEdgeCases(t *testing.T) {
	g := twoStars()
	s := &StaticGreedy{G: g, Seed: 1, Worlds: 2}
	if got := s.Select(0); got != nil {
		t.Fatalf("Select(0) = %v", got)
	}
	if got := s.Select(100); len(got) != g.NumNodes() {
		t.Fatalf("Select(100) = %d seeds", len(got))
	}
	empty := &StaticGreedy{G: graph.NewBuilder(0, true).Build(), Worlds: 2, Seed: 1}
	if got := empty.Select(3); got != nil {
		t.Fatalf("empty graph Select = %v", got)
	}
	if s.Name() == "" {
		t.Fatal("empty name")
	}
}
