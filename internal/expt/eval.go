package expt

import (
	"context"
	"fmt"

	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/gnn"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/privim"
)

// evalContext caches everything reusable across methods on one dataset +
// seed: the generated graph, the train/test split, and the CELF reference.
type evalContext struct {
	settings Settings
	preset   dataset.Preset
	ds       *dataset.Dataset
	trainG   *graph.Graph
	testG    *graph.Graph

	k          int
	celfSeeds  []graph.NodeID
	celfSpread float64
}

// newEval generates the dataset and computes the CELF ground truth.
func newEval(p dataset.Preset, s Settings, seed int64) (*evalContext, error) {
	scale, err := s.effectiveScale(p)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(p, dataset.Options{Scale: scale, Seed: seed, InfluenceProb: 1})
	if err != nil {
		return nil, err
	}
	e := &evalContext{
		settings: s,
		preset:   p,
		ds:       ds,
		trainG:   ds.TrainSubgraph().G,
		testG:    ds.TestSubgraph().G,
		k:        s.SeedSetSize,
	}
	if e.k > e.testG.NumNodes()/2 {
		e.k = e.testG.NumNodes() / 2
	}
	celf := &im.CELF{
		Model:    e.model(),
		Rounds:   s.MCRounds,
		Seed:     seed,
		NumNodes: e.testG.NumNodes(),
		Obs:      s.Observer,
	}
	e.celfSeeds = celf.Select(e.k)
	e.celfSpread = e.spread(e.celfSeeds, seed)
	if e.celfSpread <= 0 {
		return nil, fmt.Errorf("expt: CELF reference spread is 0 on %s", p)
	}
	return e, nil
}

// model returns the evaluation diffusion model (IC with the paper's step
// bound on the held-out graph).
func (e *evalContext) model() diffusion.Model {
	return &diffusion.IC{G: e.testG, MaxSteps: e.settings.DiffusionSteps}
}

// spread estimates the influence spread of a seed set on the test graph.
func (e *evalContext) spread(seeds []graph.NodeID, seed int64) float64 {
	spread, _ := diffusion.Estimate(context.Background(), e.model(), seeds, e.settings.MCRounds, seed, diffusion.Options{Obs: e.settings.Observer}) // Background never cancels
	return spread
}

// trainConfig builds a privim.Config for the given method and budget.
func (e *evalContext) trainConfig(mode privim.Mode, eps float64, seed int64) privim.Config {
	return privim.Config{
		Mode:         mode,
		HiddenDim:    e.settings.HiddenDim,
		Layers:       e.settings.Layers,
		Epsilon:      eps,
		SubgraphSize: e.settings.SubgraphSize,
		Threshold:    e.settings.Threshold,
		Theta:        e.settings.Theta,
		Iterations:   e.settings.Iterations,
		BatchSize:    e.settings.BatchSize,
		LossSteps:    e.settings.DiffusionSteps,
		Seed:         seed,
		Observer:     e.settings.Observer,
	}
}

// methodOutcome is one trained method's evaluation on the test split.
type methodOutcome struct {
	Spread   float64
	Coverage float64 // percent of CELF
	Result   *privim.Result
}

// runMethod trains a method and evaluates its seed set.
func (e *evalContext) runMethod(cfg privim.Config, seed int64) (methodOutcome, error) {
	res, err := privim.Train(context.Background(), e.trainG, cfg)
	if err != nil {
		return methodOutcome{}, fmt.Errorf("expt: %s on %s: %w", cfg.Mode, e.preset, err)
	}
	seeds := res.SelectSeeds(e.testG, e.k)
	sp := e.spread(seeds, seed)
	return methodOutcome{
		Spread:   sp,
		Coverage: im.CoverageRatio(sp, e.celfSpread),
		Result:   res,
	}, nil
}

// runGNNKind trains PrivIM* with an explicit architecture (Figure 9).
func (e *evalContext) runGNNKind(kind gnn.Kind, eps float64, seed int64) (methodOutcome, error) {
	cfg := e.trainConfig(privim.ModeDual, eps, seed)
	cfg.GNNKind = kind
	return e.runMethod(cfg, seed)
}
