package privim_test

import (
	"bytes"
	"math"
	"testing"

	"privim"
)

// TestPublicAPIPipeline exercises the whole facade the way a downstream
// user would: generate, train, select, evaluate, persist.
func TestPublicAPIPipeline(t *testing.T) {
	ds, err := privim.GenerateDataset(privim.Email, privim.DatasetOptions{
		Scale: 0.15, Seed: 1, InfluenceProb: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := ds.TrainSubgraph().G
	test := ds.TestSubgraph().G

	res, err := privim.Train(train, privim.Config{
		Mode:         privim.ModeDual,
		Epsilon:      3,
		SubgraphSize: 10,
		HiddenDim:    8,
		Layers:       2,
		Iterations:   8,
		BatchSize:    4,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Private || res.EpsilonSpent > 3.01 {
		t.Fatalf("privacy accounting wrong: %v", res)
	}

	const k = 5
	seeds := res.SelectSeeds(test, k)
	if len(seeds) != k {
		t.Fatalf("got %d seeds", len(seeds))
	}
	ic := &privim.IC{G: test, MaxSteps: 1}
	spread := privim.EstimateSpread(ic, seeds, 1, 1)
	if spread < k {
		t.Fatalf("spread %v below seed count", spread)
	}

	celf := &privim.CELF{Model: ic, Rounds: 1, Seed: 1, NumNodes: test.NumNodes()}
	ref := privim.EstimateSpread(ic, celf.Select(k), 1, 1)
	cov := privim.CoverageRatio(spread, ref)
	if cov <= 0 || cov > 101 {
		t.Fatalf("coverage ratio %v", cov)
	}

	// Persistence round trip through the facade.
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := privim.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params.NumParams() != res.Model.Params.NumParams() {
		t.Fatal("checkpoint param count mismatch")
	}
}

func TestPublicAPIAccounting(t *testing.T) {
	sigma, err := privim.CalibrateSigma(2, 1e-5, 50, 16, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	acc := privim.Accountant{M: 300, B: 16, Ng: 4, Sigma: sigma}
	if eps := acc.Epsilon(50, 1e-5); eps > 2.001 {
		t.Fatalf("calibrated accountant exceeds budget: %v", eps)
	}
}

func TestPublicAPISolversAndMetrics(t *testing.T) {
	b := privim.NewGraphBuilder(6, true)
	for v := 1; v < 6; v++ {
		b.AddEdge(0, privim.NodeID(v), 1)
	}
	g := b.Build()
	if top := privim.TopKScores([]float64{0.9, 0.1, 0.5}, 1); len(top) != 1 || top[0] != 0 {
		t.Fatalf("TopKScores = %v", top)
	}
	deg := &privim.DegreeSolver{G: g}
	if s := deg.Select(1); s[0] != 0 {
		t.Fatalf("degree solver picked %v", s)
	}
	imm := &privim.IMM{G: g, Seed: 1}
	if s := imm.Select(1); s[0] != 0 {
		t.Fatalf("IMM picked %v", s)
	}
	if cov := privim.CoverageValue(g, privim.GreedyMaxCover(g, 1)); cov != 6 {
		t.Fatalf("greedy cover = %d, want 6", cov)
	}
	if cc := privim.ClusteringCoefficient(g); cc != 0 {
		t.Fatalf("star clustering = %v", cc)
	}
	if cores := privim.KCore(g); cores[0] != 1 {
		t.Fatalf("star hub core = %d", cores[0])
	}
}

func TestPublicAPIAudit(t *testing.T) {
	ds, err := privim.GenerateDataset(privim.Email, privim.DatasetOptions{
		Scale: 0.1, Seed: 2, InfluenceProb: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := privim.Audit(ds.Graph, privim.AuditConfig{
		Runs:   2,
		Target: -1,
		Train: privim.Config{
			Mode: privim.ModeDual, Epsilon: 1,
			SubgraphSize: 8, HiddenDim: 4, Layers: 1, Iterations: 3, BatchSize: 2,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accuracy < 0.5 || math.IsNaN(rep.EmpiricalEpsLower) {
		t.Fatalf("bad audit report %+v", rep)
	}
}
