package privim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"

	"privim"
)

// Example shows the end-to-end PrivIM* pipeline: generate a dataset, train
// under node-level DP, and select seeds on the held-out split.
func Example() {
	ds, err := privim.GenerateDataset(privim.Email, privim.DatasetOptions{
		Scale: 0.1, Seed: 1, InfluenceProb: 1,
	})
	if err != nil {
		panic(err)
	}
	res, err := privim.Train(ds.TrainSubgraph().G, privim.Config{
		Mode:         privim.ModeDual,
		Epsilon:      3,
		SubgraphSize: 10,
		HiddenDim:    8,
		Layers:       2,
		Iterations:   5,
		BatchSize:    4,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}
	seeds := res.SelectSeeds(ds.TestSubgraph().G, 5)
	fmt.Println("private:", res.Private)
	fmt.Println("seeds selected:", len(seeds))
	fmt.Println("budget respected:", res.EpsilonSpent <= 3.0001)
	// Output:
	// private: true
	// seeds selected: 5
	// budget respected: true
}

// ExampleCELF runs the lazy-greedy ground truth on a two-hub network.
func ExampleCELF() {
	b := privim.NewGraphBuilder(8, true)
	for v := 1; v <= 4; v++ {
		b.AddEdge(0, privim.NodeID(v), 1)
	}
	b.AddEdge(5, 6, 1)
	b.AddEdge(5, 7, 1)
	g := b.Build()

	celf := &privim.CELF{
		Model:    &privim.IC{G: g},
		Rounds:   10,
		NumNodes: g.NumNodes(),
	}
	seeds := celf.Select(2)
	ints := make([]int, len(seeds))
	for i, s := range seeds {
		ints[i] = int(s)
	}
	sort.Ints(ints)
	fmt.Println(ints)
	// Output:
	// [0 5]
}

// ExampleCalibrateSigma finds the noise multiplier for a privacy target.
func ExampleCalibrateSigma() {
	sigma, err := privim.CalibrateSigma(2, 1e-5, 100, 16, 500, 4)
	if err != nil {
		panic(err)
	}
	acc := privim.Accountant{M: 500, B: 16, Ng: 4, Sigma: sigma}
	fmt.Println("meets target:", acc.Epsilon(100, 1e-5) <= 2.0001)
	// Output:
	// meets target: true
}

// ExampleResult_SaveModel round-trips a trained model through the
// checkpoint format: the saved-then-loaded model selects exactly the
// same seeds as the in-memory original.
func ExampleResult_SaveModel() {
	ds, err := privim.GenerateDataset(privim.Email, privim.DatasetOptions{
		Scale: 0.1, Seed: 1, InfluenceProb: 1,
	})
	if err != nil {
		panic(err)
	}
	res, err := privim.Train(ds.TrainSubgraph().G, privim.Config{
		Mode:         privim.ModeDual,
		Epsilon:      3,
		SubgraphSize: 10,
		HiddenDim:    8,
		Layers:       2,
		Iterations:   3,
		BatchSize:    4,
		Seed:         1,
	})
	if err != nil {
		panic(err)
	}

	var buf bytes.Buffer
	if err := res.SaveModel(&buf); err != nil {
		panic(err)
	}
	loaded, err := privim.LoadModel(&buf)
	if err != nil {
		panic(err)
	}

	test := ds.TestSubgraph().G
	want := res.SelectSeeds(test, 5)
	got := privim.TopKScores(privim.ScoreModel(loaded, test), 5)
	fmt.Println("identical seeds:", reflect.DeepEqual(want, got))
	// Output:
	// identical seeds: true
}

// ExampleEstimateSpread evaluates a seed set under the IC model.
func ExampleEstimateSpread() {
	b := privim.NewGraphBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	spread := privim.EstimateSpread(&privim.IC{G: g}, []privim.NodeID{0}, 1, 1)
	fmt.Println(spread)
	// Output:
	// 4
}
