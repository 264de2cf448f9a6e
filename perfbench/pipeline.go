package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"privim"
	"privim/internal/graph"
)

// pipelineSize fixes the pipeline workload's inputs and settings.
type pipelineSize struct {
	nodes, arcs int
	iterations  int
	k           int
	mcRounds    int
	setups      int
	warmup      int
	// coverageFloor is the lowest acceptable mean coverage (percent of the
	// CELF reference spread) over the run's operations.
	coverageFloor float64
}

func pipelineSizes(tiny bool) pipelineSize {
	if tiny {
		return pipelineSize{nodes: 400, arcs: 2400, iterations: 4, k: 10, mcRounds: 20, setups: 2, warmup: 2, coverageFloor: 20}
	}
	// Bitcoin-shaped: the Table I Bitcoin graph has 5.9k nodes and average
	// degree 6.05; the paper trains with ε=3, T=40 and selects k=50.
	return pipelineSize{nodes: 6000, arcs: 36000, iterations: 40, k: 50, mcRounds: 100, setups: 21, warmup: 2, coverageFloor: 50}
}

// pipelineInput is the pipeline workload's generated edge list.
func pipelineInput(seed int64, sz pipelineSize) []byte {
	return edgeList(sz.nodes, powerLawArcs(sz.nodes, sz.arcs, newSplitmix(seed, 1)))
}

// setupTimes collects the repeated cold set-ups of a workload.
type setupTimes struct {
	setup, parse, load, induce timings
}

// setUpPipeline is the program's set-up before the first operation:
// parse the edge list, weight and split it 50/50, and induce both halves.
func setUpPipeline(o privim.Observer, data []byte, seed int64, t *setupTimes) (train, test *privim.Graph, err error) {
	ctx := context.Background()
	w := startWatch()
	_, sp := benchSpan(ctx, o, "graph.load")
	g, err := graph.ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	t.parse.add(w.stop())
	ds := privim.DatasetFromGraph("pipeline", g, privim.DatasetOptions{Seed: seed, InfluenceProb: 1})
	sp.End()
	t.load.add(w.stop())
	wi := startWatch()
	_, sp = benchSpan(ctx, o, "graph.induce")
	train = ds.TrainSubgraph().G
	test = ds.TestSubgraph().G
	sp.End()
	t.induce.add(wi.stop())
	t.setup.add(w.stop())
	return train, test, nil
}

// runPipeline measures one full PrivIM* run per operation: private
// training on the train half, seed selection on the test half, and a
// Monte-Carlo spread estimate of the selected seeds.
func runPipeline(opts options) (*report, error) {
	sz := pipelineSizes(opts.tiny)
	r := newReport()
	data := pipelineInput(opts.seed, sz)
	r.inputDigest = digest(data)

	var rec *recorder
	var tracer privim.Observer
	if opts.trace {
		rec = &recorder{}
		tracer = rec
	}
	var st setupTimes
	var train, test *privim.Graph
	for i := 0; i < sz.setups; i++ {
		gcBeforePhase()
		var err error
		if train, test, err = setUpPipeline(tracer, data, opts.seed, &st); err != nil {
			return nil, fmt.Errorf("pipeline set-up: %w", err)
		}
	}
	data = nil

	// The reference for the coverage check: CELF on the test half under
	// the evaluation's one-step cascade. With unit weights one step is
	// deterministic, so one Monte-Carlo round is exact.
	eval := &privim.IC{G: test, MaxSteps: 1}
	celf := &privim.CELF{Model: eval, Rounds: 1, NumNodes: test.NumNodes()}
	refSpread := privim.EstimateSpread(eval, celf.Select(sz.k), 1, opts.seed)
	r.info["celf_spread"] = refSpread

	var trainT, queryT timings
	var coverage []float64
	var out outputDigest
	op := func(i int, traced bool) bool {
		var o privim.Observer
		if traced {
			o = rec
		}
		ctx, root := benchSpan(context.Background(), o, "bench.pipeline.op")
		opSeed := opts.seed<<20 + int64(i) + 1
		w := startWatch()
		tctx, sp := benchSpan(ctx, o, "bench.train")
		res, err := privim.TrainContext(tctx, train, privim.Config{
			Mode:       privim.ModeDual,
			Epsilon:    3,
			Iterations: sz.iterations,
			Seed:       opSeed,
			Observer:   o,
		})
		sp.End()
		if !traced {
			trainT.add(w.stop())
		}
		w = startWatch()
		if !r.expect(err == nil, "op %d: train: %v", i, err) {
			root.End()
			return false
		}
		// Result.SelectSeeds is TopKScores over Scores; the two calls are
		// made separately so the trace can split scoring from ranking.
		_, sp = benchSpan(ctx, o, "bench.score")
		scores := res.Scores(test)
		sp.End()
		_, sp = benchSpan(ctx, o, "bench.topk")
		seeds := privim.TopKScores(scores, sz.k)
		sp.End()
		if !traced {
			queryT.add(w.stop())
		}
		ectx, sp := benchSpan(ctx, o, "bench.estimate")
		spread, err := privim.EstimateSpreadContext(ectx, eval, seeds, sz.mcRounds, opSeed, o)
		sp.End()
		root.End()
		ok := r.expect(err == nil, "op %d: estimate: %v", i, err)
		ok = r.expect(res.EpsilonSpent <= 3, "op %d: ε spent %v exceeds the requested 3", i, res.EpsilonSpent) && ok
		ok = r.expect(res.MaxOccurrence <= res.OccurrenceBound, "op %d: max occurrence %d exceeds the bound %d",
			i, res.MaxOccurrence, res.OccurrenceBound) && ok
		ok = r.expect(validSeeds(seeds, sz.k, test.NumNodes()), "op %d: want %d distinct in-range seeds, got %v", i, sz.k, seeds) && ok
		coverage = append(coverage, privim.CoverageRatio(spread, refSpread))
		if i < digestOps {
			out.nodes(seeds)
			out.float(res.EpsilonSpent)
		}
		return ok
	}
	var loop closedLoop
	loop.run(opts, sz.warmup, op, r)
	r.outputDigest = out.sum()
	r.info["mean_coverage_pct"] = mean(coverage)
	r.runCheck(mean(coverage) >= sz.coverageFloor, "mean coverage %.1f%% of CELF is below the %.0f%% floor",
		mean(coverage), sz.coverageFloor)

	r.report(&st.setup, &loop.untraced, &queryT, &st.parse, &trainT, median(loop.rss))
	if opts.trace {
		l := r.layer
		zeroLayers(l)
		l["graph.parse_ms"] = median(st.parse.wall)
		l["graph.load_ms"] = median(st.load.wall)
		l["graph.induce_ms"] = median(st.induce.wall)
		v := rec.view()
		trainLayers(l, v)
		l["gnn.score_ms"] = median(v.durations("bench.score"))
		l["im.topk_ms"] = median(v.durations("bench.topk"))
		diffusionLayers(l, v)
		loop.cost.record(l)
		l["obs.overhead_pct"] = overheadPct(loop.untraced, loop.traced)
		if err := rec.writeJournal(filepath.Join(opts.workDir, "trace-pipeline.jsonl")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// validSeeds reports whether seeds holds exactly k distinct IDs in [0, n).
func validSeeds(seeds []int32, k, n int) bool {
	if len(seeds) != k {
		return false
	}
	seen := make([]bool, n)
	for _, s := range seeds {
		if s < 0 || int(s) >= n || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}
