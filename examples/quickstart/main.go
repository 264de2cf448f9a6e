// Quickstart: train a differentially private GNN for influence
// maximization on a small synthetic social network, select seeds, and
// compare against the CELF ground truth — the whole PrivIM* pipeline in
// one file.
package main

import (
	"fmt"
	"log"

	"privim"
	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/im"
)

func main() {
	// 1. A LastFM-shaped social network (~380 nodes at this scale), with
	//    the paper's uniform influence probability w = 1.
	ds, err := dataset.Generate(dataset.LastFM, dataset.Options{
		Scale:         0.05,
		Seed:          42,
		InfluenceProb: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	train := ds.TrainSubgraph().G
	test := ds.TestSubgraph().G
	fmt.Printf("dataset: %s  train |V|=%d  test |V|=%d\n", ds.Name, train.NumNodes(), test.NumNodes())

	// 2. Train PrivIM* under a node-level (ε=3, δ≈1/|V|)-DP guarantee.
	//    Defaults follow the paper: 3-layer GRAT, dual-stage sampling.
	res, err := privim.Train(train, privim.Config{
		Mode:       privim.ModeDual,
		Epsilon:    3,
		Iterations: 30,
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %v\n", res)
	fmt.Printf("noise: σ=%.3f multiplier, absolute scale %.3f per gradient coordinate\n", res.Sigma, res.NoiseScale)

	// 3. Select the top-k seeds on the held-out test graph.
	const k = 10
	seeds := res.SelectSeeds(test, k)
	fmt.Printf("private seed set (k=%d): %v\n", k, seeds)

	// 4. Evaluate influence spread under the 1-step IC model and compare
	//    with the non-private CELF greedy reference.
	model := &diffusion.IC{G: test, MaxSteps: 1}
	spread := privim.EstimateSpread(model, seeds, 1, 42)

	celf := &im.CELF{Model: model, Rounds: 1, Seed: 42, NumNodes: test.NumNodes()}
	celfSeeds := celf.Select(k)
	celfSpread := privim.EstimateSpread(model, celfSeeds, 1, 42)

	fmt.Printf("PrivIM* spread: %.0f nodes\n", spread)
	fmt.Printf("CELF    spread: %.0f nodes (non-private ground truth)\n", celfSpread)
	fmt.Printf("coverage ratio: %.1f%% at ε=%.0f\n", im.CoverageRatio(spread, celfSpread), 3.0)
}
