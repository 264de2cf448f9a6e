package main

import (
	"privim"
	"privim/internal/obs"
)

// zeroLayers reports every per-layer metric as 0 before a workload fills
// in the layers it exercises: 0 means the workload does no work there.
func zeroLayers(m map[string]float64) {
	for _, s := range perLayer {
		m[s.name] = 0
	}
}

// trainLayers fills the privim, sampling, dp and DP-SGD parallel metrics
// from the spans and events of the traced training runs.
func trainLayers(m map[string]float64, v *traceView) {
	m["privim.dpsgd_ms"] = median(v.durations("module3.dpsgd"))
	m["privim.prep_ms"] = median(v.selfDurations("train"))
	m["sampling.extract_ms"] = median(v.durations("module1.extract"))
	m["dp.account_ms"] = median(v.durations("module2.account"))
	runs := float64(len(v.durations("train")))
	var clip []float64
	var imbalance []float64
	var subgraphs, walks, samples int
	for _, e := range v.events {
		switch ev := e.(type) {
		case privim.IterationEnd:
			clip = append(clip, ev.ClipFraction)
		case privim.ExtractionDone:
			subgraphs += ev.Subgraphs
			walks += ev.Walks
		case obs.ParallelFor:
			if ev.Site == "train.dpsgd" {
				samples += ev.Tasks
				imbalance = append(imbalance, ev.Imbalance)
			}
		}
	}
	m["privim.clip_fraction"] = mean(clip)
	m["privim.samples_per_s"] = float64(samples) / (sum(v.durations("module3.dpsgd")) / 1e3)
	m["sampling.subgraphs"] = float64(subgraphs) / runs
	m["sampling.walk_yield"] = float64(subgraphs) / float64(walks)
	m["parallel.dpsgd_imbalance"] = mean(imbalance)
}

// diffusionLayers fills the Monte-Carlo metrics.
func diffusionLayers(m map[string]float64, v *traceView) {
	m["diffusion.estimate_ms"] = median(v.durations("diffusion.estimate"))
	var rate []float64
	for _, e := range v.events {
		if ev, ok := e.(privim.MCBatchDone); ok {
			rate = append(rate, ev.SimsPerSec)
		}
	}
	m["diffusion.sims_per_s"] = median(rate)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
