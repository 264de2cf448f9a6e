package audit

import (
	"math"
	"testing"

	"privim/internal/dataset"
	"privim/internal/graph"
	core "privim/internal/privim"
)

func auditGraph(t *testing.T) *graph.Graph {
	t.Helper()
	ds, err := dataset.Generate(dataset.Email, dataset.Options{Scale: 0.15, Seed: 1, InfluenceProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

func auditTrainConfig(eps float64) core.Config {
	return core.Config{
		Mode:         core.ModeDual,
		Epsilon:      eps,
		SubgraphSize: 10,
		HiddenDim:    8,
		Layers:       2,
		Iterations:   6,
		BatchSize:    4,
		Seed:         1,
	}
}

func TestRunValidation(t *testing.T) {
	g := auditGraph(t)
	if _, err := Run(g, Config{Runs: 1, Train: auditTrainConfig(1)}); err == nil {
		t.Fatal("expected error for Runs < 2")
	}
	if _, err := Run(g, Config{Runs: 2, Target: graph.NodeID(g.NumNodes() + 5), Train: auditTrainConfig(1)}); err == nil {
		t.Fatal("expected error for out-of-range target")
	}
}

func TestAuditReportShape(t *testing.T) {
	g := auditGraph(t)
	rep, err := Run(g, Config{Runs: 3, Target: -1, Train: auditTrainConfig(2), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.WithStats) != 3 || len(rep.WithoutStats) != 3 {
		t.Fatalf("stats lengths %d/%d", len(rep.WithStats), len(rep.WithoutStats))
	}
	if rep.Accuracy < 0.5 || rep.Accuracy > 1 {
		t.Fatalf("accuracy %v outside [0.5, 1]", rep.Accuracy)
	}
	if rep.EmpiricalEpsLower < 0 {
		t.Fatalf("empirical eps %v negative", rep.EmpiricalEpsLower)
	}
	if math.IsInf(rep.TheoreticalEps, 1) {
		t.Fatal("private audit should report finite theoretical eps")
	}
	// Target defaulted to the max-degree node.
	wantTarget := graph.NodeID(0)
	bestDeg := -1
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.OutDegree(graph.NodeID(v)) + g.InDegree(graph.NodeID(v)); d > bestDeg {
			wantTarget, bestDeg = graph.NodeID(v), d
		}
	}
	if rep.Target != wantTarget {
		t.Fatalf("target %d, want max-degree node %d", rep.Target, wantTarget)
	}
}

func TestPrivateLeaksLessThanNonPrivate(t *testing.T) {
	// The headline audit property: the DP pipeline's empirical
	// distinguishability must not exceed the non-private pipeline's (with
	// slack for the small sample).
	g := auditGraph(t)
	priv, err := Run(g, Config{Runs: 5, Target: -1, Train: auditTrainConfig(1), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	nonPriv, err := Run(g, Config{Runs: 5, Target: -1, Train: auditTrainConfig(0), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if priv.Accuracy > nonPriv.Accuracy+0.21 {
		t.Fatalf("private attack accuracy %v should not exceed non-private %v",
			priv.Accuracy, nonPriv.Accuracy)
	}
	if !math.IsInf(nonPriv.TheoreticalEps, 1) {
		t.Fatalf("non-private audit should report +Inf eps, got %v", nonPriv.TheoreticalEps)
	}
}

func TestThresholdAttackSeparatedSamples(t *testing.T) {
	// Perfectly separated worlds with enough samples: accuracy 1 and a
	// positive 95%-confidence eps bound. (With only a handful of samples
	// the Clopper-Pearson bounds correctly refuse to certify leakage.)
	with := make([]float64, 20)
	without := make([]float64, 20)
	for i := range with {
		with[i] = 10 + float64(i)
		without[i] = float64(i)*0.1 - 10
	}
	acc, eps := thresholdAttack(with, without, 0)
	if acc != 1 {
		t.Fatalf("accuracy = %v, want 1", acc)
	}
	if eps <= 0 {
		t.Fatalf("eps bound %v should be positive for 20 separated samples", eps)
	}
	// Few samples: bound must stay conservative even when separated.
	_, epsSmall := thresholdAttack([]float64{10, 11, 12}, []float64{1, 2, 3}, 0)
	if epsSmall < 0 {
		t.Fatalf("eps bound %v negative", epsSmall)
	}
	if epsSmall >= eps {
		t.Fatalf("3-sample bound %v should be weaker than 20-sample bound %v", epsSmall, eps)
	}
	// Identical worlds: accuracy stays at chance.
	acc2, _ := thresholdAttack([]float64{5, 5, 5}, []float64{5, 5, 5}, 0)
	if acc2 != 0.5 {
		t.Fatalf("identical worlds accuracy = %v, want 0.5", acc2)
	}
}

func TestClopperPearsonBounds(t *testing.T) {
	// k=n: lower bound solves p^n = alpha.
	lo := binomialLowerBound(20, 20, 0.95)
	want := math.Pow(0.05, 1.0/20)
	if math.Abs(lo-want) > 1e-6 {
		t.Fatalf("CP lower(20/20) = %v, want %v", lo, want)
	}
	// k=0: upper bound solves (1-p)^n = alpha.
	hi := binomialUpperBound(0, 20, 0.95)
	wantHi := 1 - math.Pow(0.05, 1.0/20)
	if math.Abs(hi-wantHi) > 1e-6 {
		t.Fatalf("CP upper(0/20) = %v, want %v", hi, wantHi)
	}
	// Bounds bracket the point estimate.
	if l := binomialLowerBound(7, 10, 0.95); l >= 0.7 {
		t.Fatalf("lower bound %v should be below 0.7", l)
	}
	if h := binomialUpperBound(7, 10, 0.95); h <= 0.7 {
		t.Fatalf("upper bound %v should be above 0.7", h)
	}
	// Degenerate inputs.
	if binomialLowerBound(0, 10, 0.95) != 0 {
		t.Fatal("lower(0/10) should be 0")
	}
	if binomialUpperBound(10, 10, 0.95) != 1 {
		t.Fatal("upper(10/10) should be 1")
	}
}

func TestBinomialCDF(t *testing.T) {
	// Bin(4, 0.5): P(X <= 2) = (1+4+6)/16.
	if got := binomialCDFAtMost(2, 4, 0.5); math.Abs(got-11.0/16) > 1e-12 {
		t.Fatalf("CDF = %v, want 11/16", got)
	}
	if binomialCDFAtMost(-1, 4, 0.5) != 0 || binomialCDFAtMost(4, 4, 0.5) != 1 {
		t.Fatal("CDF edge cases wrong")
	}
}

func TestThresholdAttackOrientation(t *testing.T) {
	// The attack must work regardless of which world has larger stats.
	accA, _ := thresholdAttack([]float64{1, 2}, []float64{8, 9}, 0)
	accB, _ := thresholdAttack([]float64{8, 9}, []float64{1, 2}, 0)
	if accA != 1 || accB != 1 {
		t.Fatalf("orientation handling broken: %v, %v", accA, accB)
	}
}

// TestThresholdAttackSubtractsDelta: under (ε, δ)-DP a threshold's TPR is
// at most e^ε·FPR + δ, so the bound is ln((TPR_lo − δ)/FPR_hi). δ = 0
// gives the pure-ε bound, a positive δ lowers it, and a threshold whose
// TPR_lo is at most δ certifies nothing.
func TestThresholdAttackSubtractsDelta(t *testing.T) {
	with := make([]float64, 20)
	without := make([]float64, 20)
	for i := range with {
		with[i] = 10 + float64(i)
		without[i] = float64(i)*0.1 - 10
	}
	// The separating threshold maximizes the bound at any δ.
	tprLo, fprHi := binomialLowerBound(20, 20, 0.95), binomialUpperBound(0, 20, 0.95)
	for _, tc := range []struct{ delta, want float64 }{
		{0, math.Log(tprLo / fprHi)},
		{0.1, math.Log((tprLo - 0.1) / fprHi)},
		{tprLo, 0},
	} {
		if _, eps := thresholdAttack(with, without, tc.delta); math.Abs(eps-tc.want) > 1e-12 {
			t.Errorf("δ=%v: eps bound %v, want %v", tc.delta, eps, tc.want)
		}
	}
}
