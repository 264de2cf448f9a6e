package im

import (
	"math/rand"
	"testing"

	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/graph"
)

// The paper's Example 2: with node-level sensitivity Δf = |V|, the Laplace
// noise at ε=1 swamps real gains (which top out at the graph size), so
// noisy greedy is no better than random — while the same greedy with an
// essentially-infinite budget recovers the hubs.
func TestNoisyGreedyExample2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := dataset.BarabasiAlbert(200, 3, rng)
	g.SetUniformWeights(1)
	model := &diffusion.IC{G: g, MaxSteps: 1}
	const k = 5

	celf := &CELF{Model: model, Rounds: 1, Seed: 1, NumNodes: g.NumNodes()}
	ref := spread(model, celf.Select(k), 1, 2)

	// Essentially non-private budget: noise scale ~0, recovers greedy.
	exact := &NoisyGreedy{Model: model, Epsilon: 1e9, Rounds: 1, Seed: 1, NumNodes: g.NumNodes()}
	exactSpread := spread(model, exact.Select(k), 1, 2)
	if exactSpread < 0.95*ref {
		t.Fatalf("eps=1e9 noisy greedy spread %v should match CELF %v", exactSpread, ref)
	}

	// ε=1: selection should collapse toward random. Average a few trials.
	total := 0.0
	const trials = 5
	for i := int64(0); i < trials; i++ {
		ng := &NoisyGreedy{Model: model, Epsilon: 1, Rounds: 1, Seed: i, NumNodes: g.NumNodes()}
		total += spread(model, ng.Select(k), 1, 2)
	}
	noisySpread := total / trials
	if noisySpread > 0.6*ref {
		t.Fatalf("eps=1 noisy greedy spread %v suspiciously close to CELF %v — Example 2 says it must collapse", noisySpread, ref)
	}
}

func TestNoisyGreedyEdgeCases(t *testing.T) {
	b := graph.NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	ngr := &NoisyGreedy{Model: &diffusion.IC{G: g}, Epsilon: 1, NumNodes: 4, Seed: 1}
	if got := ngr.Select(0); got != nil {
		t.Fatalf("Select(0) = %v", got)
	}
	seeds := ngr.Select(10)
	if len(seeds) != 4 {
		t.Fatalf("Select(10) = %d seeds, want 4", len(seeds))
	}
	if err := ValidateSeeds(seeds, 4); err != nil {
		t.Fatal(err)
	}
	if ngr.Name() == "" {
		t.Fatal("empty name")
	}
}
