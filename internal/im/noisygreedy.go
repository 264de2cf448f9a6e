package im

import (
	"context"
	"math/rand"

	"privim/internal/diffusion"
	"privim/internal/dp"
	"privim/internal/graph"
)

// NoisyGreedy is the strawman the paper's Example 2 rules out: classical
// greedy seed selection made "private" by adding Laplace noise to every
// marginal gain. Under node-level DP the sensitivity of a marginal gain is
// the whole network size (removing one node can change a gain by Θ(|V|)),
// so the noise scale |V|/ε dwarfs actual gains (10⁰–10³) and selection
// degenerates to uniform randomness. Implemented faithfully so the
// framework's motivation is reproducible as an experiment.
type NoisyGreedy struct {
	Model diffusion.Model
	// Epsilon is split evenly across the k selection rounds.
	Epsilon  float64
	Rounds   int // Monte Carlo rounds per gain estimate
	Seed     int64
	NumNodes int
}

// Name identifies the solver for reporting.
func (n *NoisyGreedy) Name() string { return "noisy-greedy" }

// Select returns k seed nodes (fewer if the graph is smaller).
func (n *NoisyGreedy) Select(k int) []graph.NodeID {
	if k > n.NumNodes {
		k = n.NumNodes
	}
	if k <= 0 {
		return nil
	}
	rounds := n.Rounds
	if rounds < 1 {
		rounds = 20
	}
	rng := rand.New(rand.NewSource(n.Seed))
	// Node-level sensitivity of one marginal gain: Δf = |V| (Example 2);
	// per-round budget ε/k gives Laplace scale Δf·k/ε.
	scale := float64(n.NumNodes) * float64(k) / n.Epsilon

	chosen := make(map[graph.NodeID]bool, k)
	seeds := make([]graph.NodeID, 0, k)
	for len(seeds) < k {
		base := 0.0
		if len(seeds) > 0 {
			base, _ = diffusion.Estimate(context.Background(), n.Model, seeds, rounds, n.Seed, diffusion.Options{}) // Background never cancels
		}
		best := graph.NodeID(-1)
		bestNoisy := 0.0
		for v := 0; v < n.NumNodes; v++ {
			if chosen[graph.NodeID(v)] {
				continue
			}
			cand := append(append([]graph.NodeID{}, seeds...), graph.NodeID(v))
			spread, _ := diffusion.Estimate(context.Background(), n.Model, cand, rounds, n.Seed, diffusion.Options{}) // Background never cancels
			gain := spread - base
			noisy := gain + dp.SampleLaplace(scale, rng)
			if best < 0 || noisy > bestNoisy {
				best, bestNoisy = graph.NodeID(v), noisy
			}
		}
		chosen[best] = true
		seeds = append(seeds, best)
	}
	return seeds
}
