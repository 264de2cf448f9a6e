// Model zoo: run PrivIM* with each of the five GNN architectures the paper
// evaluates (Figure 9 / Appendix G) on the same dataset and privacy budget,
// reporting the coverage ratio of each — a miniature architecture study
// showing GRAT's source-normalized attention works well for IM.
package main

import (
	"fmt"
	"log"

	"privim"
	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/gnn"
	"privim/internal/im"
)

func main() {
	ds, err := dataset.Generate(dataset.Bitcoin, dataset.Options{
		Scale:         0.08, // ≈470 nodes
		Seed:          3,
		InfluenceProb: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	train := ds.TrainSubgraph().G
	test := ds.TestSubgraph().G

	const (
		k   = 10
		eps = 2.0
	)
	model := &diffusion.IC{G: test, MaxSteps: 1}
	celf := &im.CELF{Model: model, Rounds: 1, Seed: 3, NumNodes: test.NumNodes()}
	ref := privim.EstimateSpread(model, celf.Select(k), 1, 3)
	fmt.Printf("dataset: %s (trust network), ε=%.0f, CELF reference spread %.0f\n\n", ds.Name, eps, ref)

	fmt.Printf("%-12s %10s %12s %10s\n", "architecture", "spread", "coverage", "params")
	for _, kind := range gnn.AllKinds() {
		res, err := privim.Train(train, privim.Config{
			Mode:       privim.ModeDual,
			GNNKind:    kind,
			Epsilon:    eps,
			Iterations: 30,
			Seed:       3,
		})
		if err != nil {
			log.Fatal(err)
		}
		seeds := res.SelectSeeds(test, k)
		spread := privim.EstimateSpread(model, seeds, 1, 3)
		fmt.Printf("%-12s %10.0f %11.1f%% %10d\n",
			kind, spread, im.CoverageRatio(spread, ref), res.Model.Params.NumParams())
	}
	fmt.Println("\nAll five architectures train under the same node-level DP guarantee;")
	fmt.Println("the sampling scheme and accountant are architecture-agnostic.")
}
