package expt

import (
	"io"
	"time"

	"privim/internal/dataset"
	"privim/internal/privim"
)

// DatasetStat is one Table I row.
type DatasetStat struct {
	Name      dataset.Preset
	Nodes     int
	Edges     int
	Directed  bool
	AvgDegree float64
}

// RunTableI generates every dataset at the configured scale and reports
// its statistics next to the paper's targets (Table I).
func RunTableI(s Settings, w io.Writer) ([]DatasetStat, error) {
	s = s.normalize()
	logf(w, "Table I: dataset statistics (scale-adjusted surrogates)\n")
	logf(w, "%-10s %8s %10s %10s %12s %12s\n", "dataset", "|V|", "|E|", "type", "avg-degree", "paper-avg")
	var out []DatasetStat
	for _, p := range s.Datasets {
		scale, err := s.effectiveScale(p)
		if err != nil {
			return nil, err
		}
		ds, err := dataset.Generate(p, dataset.Options{Scale: scale, Seed: s.Seed, InfluenceProb: 1})
		if err != nil {
			return nil, err
		}
		st := ds.Graph.ComputeStats()
		spec, _ := dataset.SpecFor(p)
		row := DatasetStat{
			Name: p, Nodes: st.Nodes, Edges: st.Edges,
			Directed: st.Directed, AvgDegree: st.AvgDegree,
		}
		out = append(out, row)
		kind := "undirected"
		if st.Directed {
			kind = "directed"
		}
		logf(w, "%-10s %8d %10d %10s %12.2f %12.2f\n", p, st.Nodes, st.Edges, kind, st.AvgDegree, spec.AvgDegree)
	}
	return out, nil
}

// AblationRow is one Table II cell: a method variant at a privacy budget.
type AblationRow struct {
	Mode     privim.Mode
	Epsilon  float64
	Coverage float64 // mean coverage ratio (%)
	Std      float64
}

// RunTableII reproduces the SCS/BES ablation: coverage ratio of PrivIM,
// PrivIM+SCS, and PrivIM* (SCS+BES) at ε ∈ {4, 1}, plus the Non-Private
// reference row, averaged over datasets and repeats.
func RunTableII(s Settings, w io.Writer) ([]AblationRow, error) {
	s = s.normalize()
	modes := []privim.Mode{privim.ModeNonPrivate, privim.ModeNaive, privim.ModeSCS, privim.ModeDual}
	budgets := []float64{4, 1}
	logf(w, "Table II: coverage ratio (%%) of ablation variants\n")
	logf(w, "%-14s %8s %12s %8s\n", "method", "epsilon", "coverage", "std")

	var rows []AblationRow
	for _, eps := range budgets {
		for _, mode := range modes {
			if mode == privim.ModeNonPrivate && eps != budgets[0] {
				continue // one reference row suffices
			}
			var samples []float64
			for _, p := range s.Datasets {
				for r := 0; r < s.Repeats; r++ {
					seed := s.Seed + int64(r)*7919
					e, err := newEval(p, s, seed)
					if err != nil {
						return nil, err
					}
					budget := eps
					if mode == privim.ModeNonPrivate {
						budget = privim.Infinity()
					}
					out, err := e.runMethod(e.trainConfig(mode, budget, seed), seed)
					if err != nil {
						return nil, err
					}
					samples = append(samples, out.Coverage)
				}
			}
			mean, std := meanStd(samples)
			row := AblationRow{Mode: mode, Epsilon: eps, Coverage: mean, Std: std}
			if mode == privim.ModeNonPrivate {
				row.Epsilon = privim.Infinity()
			}
			rows = append(rows, row)
			logf(w, "%-14s %8.0f %12.2f %8.2f\n", mode, row.Epsilon, mean, std)
		}
	}
	return rows, nil
}

// TimingRow is one Table III cell.
type TimingRow struct {
	Mode       privim.Mode
	Dataset    dataset.Preset
	Preprocess time.Duration
	PerEpoch   time.Duration
}

// RunTableIII measures preprocessing and per-epoch training time for
// PrivIM*, PrivIM, HP-GRAT, and EGN across the datasets (Table III).
func RunTableIII(s Settings, w io.Writer) ([]TimingRow, error) {
	s = s.normalize()
	modes := []privim.Mode{privim.ModeDual, privim.ModeNaive, privim.ModeHPGRAT, privim.ModeEGN}
	logf(w, "Table III: computational time cost\n")
	logf(w, "%-10s %-12s %14s %14s\n", "method", "dataset", "preprocess", "per-epoch")
	var rows []TimingRow
	for _, mode := range modes {
		for _, p := range s.Datasets {
			e, err := newEval(p, s, s.Seed)
			if err != nil {
				return nil, err
			}
			out, err := e.runMethod(e.trainConfig(mode, 3, s.Seed), s.Seed)
			if err != nil {
				return nil, err
			}
			row := TimingRow{
				Mode: mode, Dataset: p,
				Preprocess: out.Result.Preprocess,
				PerEpoch:   out.Result.PerEpoch,
			}
			rows = append(rows, row)
			logf(w, "%-10s %-12s %14s %14s\n", mode, p, row.Preprocess.Round(time.Microsecond), row.PerEpoch.Round(time.Microsecond))
		}
	}
	return rows, nil
}
