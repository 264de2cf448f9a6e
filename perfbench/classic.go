package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"privim"
	"privim/internal/graph"
	"privim/internal/obs"
)

// classicSize fixes the classic workload's inputs and settings.
type classicSize struct {
	nodes, arcs int
	k           int
	mcRounds    int
	setups      int
	warmup      int
}

func classicSizes(tiny bool) classicSize {
	if tiny {
		return classicSize{nodes: 1000, arcs: 8000, k: 10, mcRounds: 50, setups: 2, warmup: 2}
	}
	// Facebook-sized: the Table I Facebook graph has 22.5k nodes and
	// average degree 15; IMM picks the paper's k=50 seeds.
	return classicSize{nodes: 15000, arcs: 120000, k: 50, mcRounds: 1000, setups: 21, warmup: 2}
}

func classicInput(seed int64, sz classicSize) []byte {
	return edgeList(sz.nodes, powerLawArcs(sz.nodes, sz.arcs, newSplitmix(seed, 2)))
}

// setUpClassic is the program's set-up: parse the edge list and weight it
// as a weighted cascade.
func setUpClassic(o privim.Observer, data []byte, t *setupTimes) (*privim.Graph, error) {
	w := startWatch()
	_, sp := benchSpan(context.Background(), o, "graph.load")
	defer sp.End()
	g, err := graph.ReadEdgeList(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	t.parse.add(w.stop())
	g.SetWeightedCascade()
	t.setup.add(w.stop())
	return g, nil
}

// runClassic measures the non-private reference path per operation: IMM
// seed selection under weighted-cascade IC, then a Monte-Carlo estimate
// of the selected seeds' spread.
func runClassic(opts options) (*report, error) {
	sz := classicSizes(opts.tiny)
	r := newReport()
	data := classicInput(opts.seed, sz)
	r.inputDigest = digest(data)

	var rec *recorder
	var tracer privim.Observer
	if opts.trace {
		rec = &recorder{}
		tracer = rec
	}
	var st setupTimes
	var g *privim.Graph
	for i := 0; i < sz.setups; i++ {
		gcBeforePhase()
		var err error
		if g, err = setUpClassic(tracer, data, &st); err != nil {
			return nil, fmt.Errorf("classic set-up: %w", err)
		}
	}
	data = nil

	var immT, mcT timings
	var out outputDigest
	op := func(i int, traced bool) bool {
		var o privim.Observer
		if traced {
			o = rec
		}
		ctx, root := benchSpan(context.Background(), o, "bench.classic.op")
		opSeed := opts.seed<<20 + int64(i) + 1
		w := startWatch()
		imm := &privim.IMM{G: g, Seed: opSeed, Obs: o}
		seeds, err := imm.SelectContext(ctx, sz.k)
		if !traced {
			immT.add(w.stop())
		}
		w = startWatch()
		if !r.expect(err == nil, "op %d: IMM: %v", i, err) {
			root.End()
			return false
		}
		spread, err := privim.EstimateSpreadContext(ctx, &privim.IC{G: g}, seeds, sz.mcRounds, opSeed, o)
		root.End()
		if !traced {
			mcT.add(w.stop())
		}
		ok := r.expect(err == nil, "op %d: estimate: %v", i, err)
		ok = r.expect(validSeeds(seeds, sz.k, g.NumNodes()), "op %d: want %d distinct in-range seeds, got %v", i, sz.k, seeds) && ok
		ok = r.expect(spread >= float64(sz.k), "op %d: spread %v below k=%d", i, spread, sz.k) && ok
		if i < digestOps {
			out.nodes(seeds)
			out.float(spread)
		}
		return ok
	}
	var loop closedLoop
	loop.run(opts, sz.warmup, op, r)
	r.outputDigest = out.sum()

	r.report(&st.setup, &loop.untraced, &immT, &st.parse, &mcT, median(loop.rss))
	if opts.trace {
		l := r.layer
		zeroLayers(l)
		l["graph.parse_ms"] = median(st.parse.wall)
		l["graph.load_ms"] = median(st.setup.wall)
		v := rec.view()
		selects := v.durations("im.imm.select")
		l["im.imm_ms"] = median(selects)
		l["im.cover_ms"] = median(v.selfDurations("im.imm.select"))
		l["im.rrset_ms"] = sum(v.durations("parallel.im.imm.rrsets")) / float64(len(selects))
		var sets int
		var imbalance []float64
		for _, e := range v.events {
			if ev, ok := e.(obs.ParallelFor); ok && ev.Site == "im.imm.rrsets" {
				sets += ev.Tasks
				imbalance = append(imbalance, ev.Imbalance)
			}
		}
		l["im.rrsets"] = float64(sets) / float64(len(selects))
		l["parallel.rrset_imbalance"] = mean(imbalance)
		diffusionLayers(l, v)
		loop.cost.record(l)
		l["obs.overhead_pct"] = overheadPct(loop.untraced, loop.traced)
		if err := rec.writeJournal(filepath.Join(opts.workDir, "trace-classic.jsonl")); err != nil {
			return nil, err
		}
	}
	return r, nil
}
