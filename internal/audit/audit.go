// Package audit empirically tests the privacy guarantee of a trained
// PrivIM pipeline by playing the differential-privacy distinguishing game:
// train many models on a graph G and on its node-adjacent neighbor G∖{v},
// then measure how well a threshold attacker can tell the two worlds apart
// from the models' outputs. For an (ε, δ)-DP trainer the attacker's
// advantage is bounded; the audit reports the empirical lower bound
// ε̂ = ln((TPR − δ)/FPR), which must not exceed the accountant's ε (up to
// sampling error). Non-private training should show near-perfect
// distinguishability on a high-influence target.
//
// This is the standard "DP auditing" methodology (Jagielski et al.) adapted
// to node-level graph privacy.
package audit

import (
	"context"
	"fmt"
	"math"
	"sort"

	"privim/internal/dataset"
	"privim/internal/graph"
	core "privim/internal/privim"
	"privim/internal/tensor"
)

// Config controls one audit.
type Config struct {
	// Runs is the number of models trained per world (total 2·Runs).
	Runs int
	// Target is the node whose presence the attacker tries to detect; a
	// negative value selects the highest weak-degree node (the worst case
	// for privacy).
	Target graph.NodeID
	// Train is the pipeline under audit; its Seed field is overridden per
	// run.
	Train core.Config
	// Seed drives the run seeds.
	Seed int64
}

// Report summarizes the distinguishing game.
type Report struct {
	// Target is the audited node.
	Target graph.NodeID
	// Accuracy is the best threshold attacker's accuracy over the 2·Runs
	// trained models (0.5 = no leakage, 1.0 = full leakage).
	Accuracy float64
	// EmpiricalEpsLower is the attack-derived lower bound on ε, maximized
	// over thresholds, computed from 95% Clopper-Pearson confidence bounds
	// as ln((TPR_lo − δ) / FPR_hi) at the larger δ the two worlds' private
	// runs were accounted at, skipping thresholds with TPR_lo ≤ δ. A valid
	// (ε, δ)-DP trainer keeps this below ε with 95% confidence; small run
	// counts therefore yield conservative (often zero) bounds, which is the
	// statistically honest answer.
	EmpiricalEpsLower float64
	// TheoreticalEps is the accountant's guarantee for the audited config
	// (+Inf for non-private runs).
	TheoreticalEps float64
	// WithStats and WithoutStats are the attacker's test statistics per
	// world (exported for diagnostics).
	WithStats, WithoutStats []float64
}

// Run executes the audit on graph g.
func Run(g *graph.Graph, cfg Config) (*Report, error) {
	if cfg.Runs < 2 {
		return nil, fmt.Errorf("audit: need at least 2 runs per world, got %d", cfg.Runs)
	}
	target := cfg.Target
	if target < 0 {
		target = highestDegree(g)
	}
	if int(target) >= g.NumNodes() {
		return nil, fmt.Errorf("audit: target %d outside graph with %d nodes", target, g.NumNodes())
	}
	// The adjacent world: G with the target node removed (unbounded
	// node-level adjacency, §II-B).
	without, _ := graph.RemoveNodes(g, map[graph.NodeID]bool{target: true})

	// The probe is a fixed graph both worlds' models are scored on, so the
	// statistic depends only on the trained weights: use the "without"
	// graph (it exists in both worlds).
	probeX := tensor.FromSlice(without.NumNodes(), dataset.NumStructuralFeatures,
		dataset.StructuralFeatures(without))

	statistic := func(train *graph.Graph, seed int64) (stat, eps, delta float64, err error) {
		tc := cfg.Train
		tc.Seed = seed
		// Pin initialization across runs: init is public in the DP threat
		// model, and fixing it stops init variance from masking leakage.
		if tc.InitSeed == 0 {
			tc.InitSeed = cfg.Seed*31 + 17
		}
		res, err := core.Train(context.Background(), train, tc)
		if err != nil {
			return 0, 0, 0, err
		}
		scores, _ := res.Model.Score(context.Background(), without, probeX) // Background never cancels
		mean := 0.0
		for _, s := range scores {
			mean += s
		}
		eps = math.Inf(1)
		if res.Private {
			eps, delta = res.EpsilonSpent, res.Config.Delta
		}
		return mean / float64(len(scores)), eps, delta, nil
	}

	rep := &Report{Target: target, TheoreticalEps: math.Inf(1)}
	delta := 0.0
	for r := 0; r < cfg.Runs; r++ {
		seed := cfg.Seed + int64(r)*104729
		sWith, eps, deltaWith, err := statistic(g, seed)
		if err != nil {
			return nil, err
		}
		if eps < rep.TheoreticalEps {
			rep.TheoreticalEps = eps
		}
		sWithout, _, deltaWithout, err := statistic(without, seed+1)
		if err != nil {
			return nil, err
		}
		delta = max(delta, deltaWith, deltaWithout)
		rep.WithStats = append(rep.WithStats, sWith)
		rep.WithoutStats = append(rep.WithoutStats, sWithout)
	}
	rep.Accuracy, rep.EmpiricalEpsLower = thresholdAttack(rep.WithStats, rep.WithoutStats, delta)
	return rep, nil
}

// highestDegree returns the node with the largest weak degree.
func highestDegree(g *graph.Graph) graph.NodeID {
	best, bestDeg := graph.NodeID(0), -1
	for v := 0; v < g.NumNodes(); v++ {
		d := g.OutDegree(graph.NodeID(v)) + g.InDegree(graph.NodeID(v))
		if d > bestDeg {
			best, bestDeg = graph.NodeID(v), d
		}
	}
	return best
}

// thresholdAttack finds the threshold maximizing classification accuracy
// between the two stat samples (trying both orientations) and the
// threshold maximizing the smoothed ln((TPR − δ)/FPR) bound: under
// (ε, δ)-DP, TPR ≤ e^ε·FPR + δ.
func thresholdAttack(with, without []float64, delta float64) (accuracy, epsLower float64) {
	type sample struct {
		v    float64
		with bool
	}
	all := make([]sample, 0, len(with)+len(without))
	for _, v := range with {
		all = append(all, sample{v, true})
	}
	for _, v := range without {
		all = append(all, sample{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	nW, nO := float64(len(with)), float64(len(without))
	bestAcc := 0.5
	bestEps := 0.0
	// Sweep thresholds between consecutive distinct values.
	withAbove := nW
	withoutAbove := nO
	const confidence = 0.95
	consider := func(tp, fp, tn, fn float64) {
		acc := (tp + tn) / (nW + nO)
		if acc > bestAcc {
			bestAcc = acc
		}
		// 95% Clopper-Pearson: lower-bound the true TPR, upper-bound the
		// true FPR, then eps >= ln((TPR_lo-δ)/FPR_hi) (Jagielski et al.).
		tprLo := binomialLowerBound(int(tp), int(nW), confidence)
		fprHi := binomialUpperBound(int(fp), int(nO), confidence)
		if tprLo > delta && fprHi > 0 {
			if e := math.Log((tprLo - delta) / fprHi); e > bestEps {
				bestEps = e
			}
		}
		// The symmetric direction: ln(((1-FPR)_lo-δ) / (1-TPR)_hi).
		tnrLo := binomialLowerBound(int(tn), int(nO), confidence)
		fnrHi := binomialUpperBound(int(fn), int(nW), confidence)
		if tnrLo > delta && fnrHi > 0 {
			if e := math.Log((tnrLo - delta) / fnrHi); e > bestEps {
				bestEps = e
			}
		}
	}
	consider(withAbove, withoutAbove, 0, 0)
	consider(0, 0, nO, nW)
	for i := 0; i < len(all); i++ {
		if all[i].with {
			withAbove--
		} else {
			withoutAbove--
		}
		if i+1 < len(all) && all[i+1].v == all[i].v {
			continue
		}
		// "predict with if stat > threshold" orientation:
		tp, fp := withAbove, withoutAbove
		tn, fn := nO-withoutAbove, nW-withAbove
		consider(tp, fp, tn, fn)
		// Opposite orientation.
		consider(fn, tn, fp, tp)
	}
	return bestAcc, bestEps
}

// binomialCDFAtMost returns P(Bin(n, p) <= k).
func binomialCDFAtMost(k, n int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	total := 0.0
	for i := 0; i <= k; i++ {
		total += math.Exp(logBinomPMF(n, i, p))
	}
	if total > 1 {
		total = 1
	}
	return total
}

// logBinomPMF returns log C(n,k) + k log p + (n-k) log(1-p).
func logBinomPMF(n, k int, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// binomialLowerBound returns the Clopper-Pearson lower confidence bound on
// the success probability after observing k successes in n trials: the
// smallest p with P(Bin(n,p) >= k) > 1-confidence, found by bisection.
func binomialLowerBound(k, n int, confidence float64) float64 {
	if n <= 0 || k <= 0 {
		return 0
	}
	alpha := 1 - confidence
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		// P(Bin(n, mid) >= k) = 1 - CDF(k-1).
		if 1-binomialCDFAtMost(k-1, n, mid) > alpha {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// binomialUpperBound returns the Clopper-Pearson upper confidence bound.
func binomialUpperBound(k, n int, confidence float64) float64 {
	if n <= 0 {
		return 1
	}
	if k >= n {
		return 1
	}
	alpha := 1 - confidence
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if binomialCDFAtMost(k, n, mid) > alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
