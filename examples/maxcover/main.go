// Max coverage: the paper (§VI-C) notes the PrivIM framework extends to
// other coverage-type combinatorial optimization problems. This example
// trains a GNN with the differentiable max-coverage penalty loss — the
// same machinery as the IM loss — and compares the learned solution
// against the classic (1−1/e) greedy algorithm, with and without privacy.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"privim"
	"privim/internal/autodiff"
	"privim/internal/dataset"
	"privim/internal/gnn"
	"privim/internal/im"
	"privim/internal/nn"
	"privim/internal/tensor"
)

func main() {
	rng := rand.New(rand.NewSource(21))
	g := dataset.BarabasiAlbert(300, 3, rng)
	g.SetUniformWeights(1)
	const k = 8

	greedy := gnn.GreedyMaxCover(g, k)
	greedyCov := gnn.CoverageValue(g, greedy)
	fmt.Printf("graph: |V|=%d |E|=%d  k=%d\n", g.NumNodes(), g.NumEdges(), k)
	fmt.Printf("greedy (1-1/e) covers %d nodes\n\n", greedyCov)

	model, err := gnn.New(gnn.Config{
		Kind:      gnn.GCN,
		InputDim:  dataset.NumStructuralFeatures,
		HiddenDim: 16,
		Layers:    2,
	})
	if err != nil {
		log.Fatal(err)
	}
	model.Init(rng)
	x := tensor.FromSlice(g.NumNodes(), dataset.NumStructuralFeatures, dataset.StructuralFeatures(g))

	prep := model.NewPrep(g)
	opt := nn.NewAdam(model.Params, 0.02)
	grads := nn.NewGrads(model.Params)
	for epoch := 0; epoch < 250; epoch++ {
		tp := autodiff.NewTape()
		bound := nn.Bind(tp, model.Params)
		scores := model.Forward(tp, bound, g, x, prep)
		loss := gnn.MaxCoverLoss(tp, g, scores, k, 1)
		tp.Backward(loss)
		nn.Collect(bound, grads)
		opt.Step(grads)
		if (epoch+1)%50 == 0 {
			chosen := im.TopKScores(privim.ScoreModel(model, g), k)
			fmt.Printf("epoch %3d: learned coverage %d / greedy %d (%.1f%%)\n",
				epoch+1, gnn.CoverageValue(g, chosen), greedyCov,
				100*float64(gnn.CoverageValue(g, chosen))/float64(greedyCov))
		}
	}

	chosen := im.TopKScores(privim.ScoreModel(model, g), k)
	fmt.Printf("\nlearned set %v\n", chosen)
	fmt.Printf("final: learned %d vs greedy %d\n", gnn.CoverageValue(g, chosen), greedyCov)

	// The same loss plugs straight into the DP-SGD pipeline: a node-level
	// differentially private max-cover solver is one Config field away.
	res, err := privim.Train(g, privim.Config{
		Mode:        privim.ModeDual,
		Objective:   privim.ObjectiveMaxCover,
		CoverBudget: k,
		Epsilon:     3,
		Iterations:  40,
		Seed:        21,
	})
	if err != nil {
		log.Fatal(err)
	}
	privChosen := im.TopKScores(res.Scores(g), k)
	fmt.Printf("\nprivate (ε=3) learned coverage: %d (%.1f%% of greedy)\n",
		gnn.CoverageValue(g, privChosen),
		100*float64(gnn.CoverageValue(g, privChosen))/float64(greedyCov))

	// Demonstrate the cut variant too.
	side := make([]bool, g.NumNodes())
	for v, s := range privim.ScoreModel(model, g) {
		side[v] = s > 0.5
	}
	fmt.Printf("(bonus) cut induced by the cover scores: %d of %d edges\n",
		gnn.CutValue(g, side), g.NumEdges())
}
