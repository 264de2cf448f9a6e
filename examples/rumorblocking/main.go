// Rumor blocking: a platform wants to immunize the most influential
// accounts (fact-check banners, rate limits) so a rumor cannot cascade —
// without the moderation pipeline itself leaking who is connected to whom.
// PrivIM identifies the top spreaders under node-level DP; the simulation
// then compares rumor reach with and without immunizing them, under both
// the Linear Threshold and SIS models the paper names as extensions.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"privim"
	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/graph"
)

func main() {
	ds, err := dataset.Generate(dataset.Facebook, dataset.Options{
		Scale:         0.02, // ≈450 pages
		Seed:          11,
		InfluenceProb: 0.2, // uniform rumor transmission probability
	})
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	fmt.Printf("network: |V|=%d |E|=%d\n", g.NumNodes(), g.NumEdges())

	// Identify likely super-spreaders privately (ε=2).
	res, err := privim.Train(ds.TrainSubgraph().G, privim.Config{
		Mode:       privim.ModeDual,
		Epsilon:    2,
		Iterations: 30,
		LossSteps:  2,
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}
	const k = 15
	blocked := res.SelectSeeds(g, k)
	fmt.Printf("privately immunized %d accounts (ε=2): %v\n\n", k, blocked)

	// The rumor starts from 5 random accounts.
	rng := rand.New(rand.NewSource(11))
	var rumorSeeds []graph.NodeID
	for len(rumorSeeds) < 5 {
		rumorSeeds = append(rumorSeeds, graph.NodeID(rng.Intn(g.NumNodes())))
	}

	immunized := immunize(g, blocked)
	const rounds = 300
	fmt.Printf("%-22s %12s %12s %10s\n", "diffusion model", "unprotected", "protected", "reduction")
	models := []struct {
		name          string
		plain, capped diffusion.Model
	}{
		{"Linear Threshold", &diffusion.LT{G: g}, &diffusion.LT{G: immunized}},
		{"SIS (recovery 0.3)", &diffusion.SIS{G: g, Recovery: 0.3, Steps: 10}, &diffusion.SIS{G: immunized, Recovery: 0.3, Steps: 10}},
		{"IC (3 steps)", &diffusion.IC{G: g, MaxSteps: 3}, &diffusion.IC{G: immunized, MaxSteps: 3}},
	}
	for _, m := range models {
		before := privim.EstimateSpread(m.plain, rumorSeeds, rounds, 11)
		after := privim.EstimateSpread(m.capped, rumorSeeds, rounds, 11)
		fmt.Printf("%-22s %12.1f %12.1f %9.1f%%\n", m.name, before, after, 100*(before-after)/before)
	}
	fmt.Println("\nImmunizing privately-identified influencers cuts rumor reach across")
	fmt.Println("all three diffusion models without exposing the raw follower graph.")
}

// immunize removes all outgoing influence from the blocked accounts: they
// can still hear the rumor but no longer propagate it.
func immunize(g *graph.Graph, blocked []graph.NodeID) *graph.Graph {
	drop := make(map[graph.NodeID]bool, len(blocked))
	for _, b := range blocked {
		drop[b] = true
	}
	out := graph.NewBuilder(g.NumNodes(), true)
	for v := 0; v < g.NumNodes(); v++ {
		if drop[graph.NodeID(v)] {
			continue
		}
		for _, a := range g.Out(graph.NodeID(v)) {
			out.AddEdge(graph.NodeID(v), a.To, a.Weight)
		}
	}
	return out.Build()
}
