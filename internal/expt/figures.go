package expt

import (
	"io"

	"privim/internal/dataset"
	"privim/internal/gnn"
	"privim/internal/privim"
	"privim/internal/stats"
)

// SpreadPoint is one (method, dataset, ε) measurement of Figure 5.
type SpreadPoint struct {
	Mode    privim.Mode
	Dataset dataset.Preset
	Epsilon float64
	Spread  float64
	Std     float64
	// CELFSpread is the per-dataset ground-truth reference.
	CELFSpread float64
}

// RunFig5 reproduces Figure 5 (and Figure 14's HepPh panel): influence
// spread of every method over every dataset as ε varies, with the CELF
// ground truth. Non-Private is included once per dataset (ε-independent).
func RunFig5(s Settings, w io.Writer) ([]SpreadPoint, error) {
	s = s.normalize()
	logf(w, "Figure 5: influence spread vs privacy budget\n")
	logf(w, "%-12s %-12s %8s %10s %8s %10s\n", "dataset", "method", "epsilon", "spread", "std", "celf")
	var points []SpreadPoint
	for _, p := range s.Datasets {
		// Cache eval contexts per repeat so every method sees the same data.
		evals := make([]*evalContext, s.Repeats)
		for r := range evals {
			e, err := newEval(p, s, s.Seed+int64(r)*7919)
			if err != nil {
				return nil, err
			}
			evals[r] = e
		}
		celfRef := evals[0].celfSpread

		runPoint := func(mode privim.Mode, eps float64) (SpreadPoint, error) {
			var samples []float64
			for r, e := range evals {
				seed := s.Seed + int64(r)*7919
				out, err := e.runMethod(e.trainConfig(mode, eps, seed), seed)
				if err != nil {
					return SpreadPoint{}, err
				}
				samples = append(samples, out.Spread)
			}
			mean, std := meanStd(samples)
			return SpreadPoint{
				Mode: mode, Dataset: p, Epsilon: eps,
				Spread: mean, Std: std, CELFSpread: celfRef,
			}, nil
		}

		np, err := runPoint(privim.ModeNonPrivate, privim.Infinity())
		if err != nil {
			return nil, err
		}
		points = append(points, np)
		logf(w, "%-12s %-12s %8s %10.2f %8.2f %10.2f\n", p, np.Mode, "inf", np.Spread, np.Std, celfRef)

		for _, mode := range []privim.Mode{privim.ModeDual, privim.ModeNaive, privim.ModeHPGRAT, privim.ModeHP, privim.ModeEGN} {
			for _, eps := range s.Epsilons {
				pt, err := runPoint(mode, eps)
				if err != nil {
					return nil, err
				}
				points = append(points, pt)
				logf(w, "%-12s %-12s %8.1f %10.2f %8.2f %10.2f\n", p, mode, eps, pt.Spread, pt.Std, celfRef)
			}
		}
	}
	return points, nil
}

// RunFig5Friendster reproduces the Friendster panel of Figure 5 on the
// partitioned surrogate: each method trains and evaluates per partition
// and reports the summed spread, mirroring the paper's memory-driven
// partitioning.
func RunFig5Friendster(s Settings, parts, nodesPerPart int, w io.Writer) ([]SpreadPoint, error) {
	s = s.normalize()
	logf(w, "Figure 5 (Friendster surrogate, %d partitions × %d nodes)\n", parts, nodesPerPart)
	dss, err := dataset.GeneratePartitioned(parts, nodesPerPart, dataset.Options{Seed: s.Seed, InfluenceProb: 1})
	if err != nil {
		return nil, err
	}
	var points []SpreadPoint
	for _, mode := range []privim.Mode{privim.ModeDual, privim.ModeNaive, privim.ModeHPGRAT, privim.ModeHP, privim.ModeEGN} {
		for _, eps := range s.Epsilons {
			total, celfTotal := 0.0, 0.0
			for _, ds := range dss {
				e := &evalContext{
					settings: s, preset: dataset.Friendster, ds: ds,
					trainG: ds.TrainSubgraph().G, testG: ds.TestSubgraph().G,
					k: s.SeedSetSize,
				}
				if e.k > e.testG.NumNodes()/2 {
					e.k = e.testG.NumNodes() / 2
				}
				out, err := e.runMethod(e.trainConfig(mode, eps, s.Seed), s.Seed)
				if err != nil {
					return nil, err
				}
				total += out.Spread
				celfTotal += out.Spread / max1(out.Coverage/100)
			}
			pt := SpreadPoint{Mode: mode, Dataset: dataset.Friendster, Epsilon: eps, Spread: total, CELFSpread: celfTotal}
			points = append(points, pt)
			logf(w, "%-12s %-12s %8.1f %10.2f\n", dataset.Friendster, mode, eps, total)
		}
	}
	return points, nil
}

func max1(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return x
}

// ParamPoint is one (n, M) → spread measurement for Figures 6/7/10/11.
type ParamPoint struct {
	Dataset dataset.Preset
	N       int
	M       int
	Spread  float64
}

// RunFig6 reproduces Figures 6/10: impact of the frequency threshold M at
// ε=3, for each subgraph size n in nGrid and threshold in mGrid.
func RunFig6(s Settings, nGrid, mGrid []int, w io.Writer) ([]ParamPoint, error) {
	s = s.normalize()
	if len(nGrid) == 0 {
		nGrid = []int{12, 16, 20, 24}
	}
	if len(mGrid) == 0 {
		mGrid = []int{2, 4, 6, 8, 10}
	}
	logf(w, "Figure 6: impact of threshold M on PrivIM* (eps=3)\n")
	logf(w, "%-12s %6s %6s %10s\n", "dataset", "n", "M", "spread")
	var points []ParamPoint
	for _, p := range s.Datasets {
		e, err := newEval(p, s, s.Seed)
		if err != nil {
			return nil, err
		}
		for _, n := range nGrid {
			for _, m := range mGrid {
				cfg := e.trainConfig(privim.ModeDual, 3, s.Seed)
				cfg.SubgraphSize = n
				cfg.Threshold = m
				out, err := e.runMethod(cfg, s.Seed)
				if err != nil {
					return nil, err
				}
				pt := ParamPoint{Dataset: p, N: n, M: m, Spread: out.Spread}
				points = append(points, pt)
				logf(w, "%-12s %6d %6d %10.2f\n", p, n, m, out.Spread)
			}
		}
	}
	return points, nil
}

// RunFig7 reproduces Figures 7/11: impact of the subgraph size n at ε=3
// with the default threshold.
func RunFig7(s Settings, nGrid []int, w io.Writer) ([]ParamPoint, error) {
	s = s.normalize()
	if len(nGrid) == 0 {
		nGrid = []int{8, 12, 16, 20, 24, 28}
	}
	logf(w, "Figure 7: impact of subgraph size n on PrivIM* (eps=3)\n")
	logf(w, "%-12s %6s %10s\n", "dataset", "n", "spread")
	var points []ParamPoint
	for _, p := range s.Datasets {
		e, err := newEval(p, s, s.Seed)
		if err != nil {
			return nil, err
		}
		for _, n := range nGrid {
			cfg := e.trainConfig(privim.ModeDual, 3, s.Seed)
			cfg.SubgraphSize = n
			out, err := e.runMethod(cfg, s.Seed)
			if err != nil {
				return nil, err
			}
			pt := ParamPoint{Dataset: p, N: n, M: s.Threshold, Spread: out.Spread}
			points = append(points, pt)
			logf(w, "%-12s %6d %10.2f\n", p, n, out.Spread)
		}
	}
	return points, nil
}

// IndicatorPoint pairs the theoretical indicator value with the measured
// spread for Figures 8/12/15.
type IndicatorPoint struct {
	Dataset   dataset.Preset
	N, M      int
	Epsilon   float64
	Indicator float64
	Spread    float64
}

// RunFig8 reproduces Figures 8/12: theoretical indicator values next to
// empirical PrivIM* spreads over an M sweep at fixed n (ε given, paper
// uses 3; Figure 15 repeats at ε ∈ {1, 6}).
func RunFig8(s Settings, eps float64, n int, mGrid []int, w io.Writer) ([]IndicatorPoint, error) {
	s = s.normalize()
	if n == 0 {
		n = s.SubgraphSize
	}
	if len(mGrid) == 0 {
		mGrid = []int{2, 4, 6, 8, 10}
	}
	ind := privim.DefaultIndicator()
	logf(w, "Figure 8: indicator vs empirical spread (eps=%.0f, n=%d)\n", eps, n)
	logf(w, "%-12s %6s %6s %12s %10s\n", "dataset", "n", "M", "indicator", "spread")
	var points []IndicatorPoint
	for _, p := range s.Datasets {
		e, err := newEval(p, s, s.Seed)
		if err != nil {
			return nil, err
		}
		numNodes := e.ds.Graph.NumNodes()
		vals := ind.Values([]int{n}, mGrid, numNodes)
		var indSeries, empSeries []float64
		for j, m := range mGrid {
			cfg := e.trainConfig(privim.ModeDual, eps, s.Seed)
			cfg.SubgraphSize = n
			cfg.Threshold = m
			out, err := e.runMethod(cfg, s.Seed)
			if err != nil {
				return nil, err
			}
			pt := IndicatorPoint{
				Dataset: p, N: n, M: m, Epsilon: eps,
				Indicator: vals[0][j], Spread: out.Spread,
			}
			points = append(points, pt)
			indSeries = append(indSeries, pt.Indicator)
			empSeries = append(empSeries, pt.Spread)
			logf(w, "%-12s %6d %6d %12.4f %10.2f\n", p, n, m, pt.Indicator, pt.Spread)
		}
		logf(w, "%-12s agreement: spearman=%.3f same-peak=%v\n",
			p, stats.Spearman(indSeries, empSeries), stats.PeakAgreement(indSeries, empSeries))
	}
	return points, nil
}

// GNNPoint is one Figure 9 bar: architecture × dataset × ε.
type GNNPoint struct {
	Kind     gnn.Kind
	Dataset  dataset.Preset
	Epsilon  float64
	Coverage float64
}

// RunFig9 reproduces Figure 9: PrivIM* coverage ratio with each GNN
// architecture at ε ∈ {2, 5}.
func RunFig9(s Settings, w io.Writer) ([]GNNPoint, error) {
	s = s.normalize()
	logf(w, "Figure 9: GNN architectures under PrivIM*\n")
	logf(w, "%-12s %-8s %8s %12s\n", "dataset", "gnn", "epsilon", "coverage")
	var points []GNNPoint
	for _, p := range s.Datasets {
		e, err := newEval(p, s, s.Seed)
		if err != nil {
			return nil, err
		}
		for _, eps := range []float64{2, 5} {
			for _, kind := range gnn.AllKinds() {
				out, err := e.runGNNKind(kind, eps, s.Seed)
				if err != nil {
					return nil, err
				}
				pt := GNNPoint{Kind: kind, Dataset: p, Epsilon: eps, Coverage: out.Coverage}
				points = append(points, pt)
				logf(w, "%-12s %-8s %8.0f %12.2f\n", p, kind, eps, out.Coverage)
			}
		}
	}
	return points, nil
}

// ThetaPoint is one Figure 13 measurement.
type ThetaPoint struct {
	Dataset  dataset.Preset
	Theta    int
	Coverage float64
}

// RunFig13 reproduces Figure 13 (Appendix I): coverage ratio of naive
// PrivIM as the in-degree bound θ varies at ε=3.
func RunFig13(s Settings, thetaGrid []int, w io.Writer) ([]ThetaPoint, error) {
	s = s.normalize()
	if len(thetaGrid) == 0 {
		thetaGrid = []int{5, 10, 15, 20}
	}
	logf(w, "Figure 13: impact of theta on PrivIM (eps=3)\n")
	logf(w, "%-12s %6s %12s\n", "dataset", "theta", "coverage")
	var points []ThetaPoint
	for _, p := range s.Datasets {
		e, err := newEval(p, s, s.Seed)
		if err != nil {
			return nil, err
		}
		for _, theta := range thetaGrid {
			cfg := e.trainConfig(privim.ModeNaive, 3, s.Seed)
			cfg.Theta = theta
			out, err := e.runMethod(cfg, s.Seed)
			if err != nil {
				return nil, err
			}
			pt := ThetaPoint{Dataset: p, Theta: theta, Coverage: out.Coverage}
			points = append(points, pt)
			logf(w, "%-12s %6d %12.2f\n", p, theta, out.Coverage)
		}
	}
	return points, nil
}
