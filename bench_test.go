// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §3 for the experiment index). Each benchmark runs the
// corresponding internal/expt runner at laptop scale on a representative
// dataset subset and reports shape metrics (coverage ratios, spreads) via
// b.ReportMetric; the imbench CLI runs the same runners at any scale over
// all datasets.
package privim_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/dp"
	"privim/internal/expt"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/obs"
	"privim/internal/parallel"
	core "privim/internal/privim"
	"privim/internal/sampling"
)

// benchSettings trims the quick suite to one dataset per bench iteration so
// `go test -bench=.` finishes in minutes while exercising identical code
// paths to the full suite.
func benchSettings(datasets ...dataset.Preset) expt.Settings {
	s := expt.Quick()
	if len(datasets) > 0 {
		s.Datasets = datasets
	} else {
		s.Datasets = []dataset.Preset{dataset.Email}
	}
	s.Repeats = 1
	return s
}

func BenchmarkTableI_DatasetStats(b *testing.B) {
	s := benchSettings(dataset.AllPresets()...)
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunTableI(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatalf("got %d datasets", len(rows))
		}
	}
}

func BenchmarkFig5_SpreadVsEpsilon(b *testing.B) {
	s := benchSettings(dataset.LastFM)
	s.Epsilons = []float64{1, 3, 6}
	var lastCoverage float64
	for i := 0; i < b.N; i++ {
		pts, err := expt.RunFig5(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range pts {
			if pt.Mode == core.ModeDual && pt.Epsilon == 6 {
				lastCoverage = 100 * pt.Spread / pt.CELFSpread
			}
		}
	}
	b.ReportMetric(lastCoverage, "privim*-cov@eps6-%")
}

func BenchmarkFig5_Friendster(b *testing.B) {
	s := benchSettings()
	s.Epsilons = []float64{3}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig5Friendster(s, 2, 300, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_CoverageAblation(b *testing.B) {
	s := benchSettings(dataset.LastFM)
	var dualMinusNaive float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunTableII(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		var naive, dual float64
		for _, r := range rows {
			if r.Epsilon == 4 {
				switch r.Mode {
				case core.ModeNaive:
					naive = r.Coverage
				case core.ModeDual:
					dual = r.Coverage
				}
			}
		}
		dualMinusNaive = dual - naive
	}
	b.ReportMetric(dualMinusNaive, "dual-minus-naive-pp")
}

func BenchmarkTableIII_TimeCost(b *testing.B) {
	s := benchSettings(dataset.Email)
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunTableIII(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

func BenchmarkFig6_ThresholdM(b *testing.B) {
	s := benchSettings(dataset.Email)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig6(s, []int{12}, []int{2, 4, 8}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_SubgraphSizeN(b *testing.B) {
	s := benchSettings(dataset.Email)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig7(s, []int{8, 12, 20}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Indicator(b *testing.B) {
	s := benchSettings(dataset.LastFM)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig8(s, 3, 12, []int{2, 4, 8}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_GNNModels(b *testing.B) {
	s := benchSettings(dataset.Email)
	for i := 0; i < b.N; i++ {
		pts, err := expt.RunFig9(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 10 {
			b.Fatalf("got %d points", len(pts))
		}
	}
}

func BenchmarkFig13_ThetaSweep(b *testing.B) {
	s := benchSettings(dataset.Email)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunFig13(s, []int{5, 10, 20}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15_IndicatorEpsilon(b *testing.B) {
	s := benchSettings(dataset.LastFM)
	for i := 0; i < b.N; i++ {
		for _, eps := range []float64{1, 6} {
			if _, err := expt.RunFig8(s, eps, 12, []int{2, 4, 8}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblation_DecayFactor(b *testing.B) {
	s := benchSettings(dataset.Email)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunAblationDecay(s, []float64{0.5, 1, 2}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_BESDivisor(b *testing.B) {
	s := benchSettings(dataset.Email)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunAblationBESDivisor(s, []int{2, 3}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DiffusionSteps(b *testing.B) {
	s := benchSettings(dataset.Email)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunAblationDiffusionSteps(s, []int{1, 2}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_Accountant(b *testing.B) {
	s := benchSettings()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rows, err := expt.RunAblationAccountant(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rows[0].SigmaNaive / rows[0].SigmaRDP
	}
	b.ReportMetric(ratio, "naive/rdp-sigma@eps1")
}

// --- substrate micro-benchmarks ---

func benchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(1))
	g := dataset.BarabasiAlbert(n, 4, rng)
	g.SetUniformWeights(0.1)
	return g
}

func BenchmarkICSimulate(b *testing.B) {
	g := benchGraph(5000)
	ic := &diffusion.IC{G: g}
	var rng parallel.StreamRNG
	rng.SetStream(2, 0)
	seeds := []graph.NodeID{0, 10, 100, 1000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.Simulate(seeds, &rng)
	}
}

func BenchmarkCELFSelect(b *testing.B) {
	g := benchGraph(400)
	for i := 0; i < b.N; i++ {
		c := &im.CELF{Model: &diffusion.IC{G: g, MaxSteps: 1}, Rounds: 1, Seed: 1, NumNodes: g.NumNodes()}
		c.Select(10)
	}
}

func BenchmarkStaticGreedySelect(b *testing.B) {
	g := benchGraph(400)
	for i := 0; i < b.N; i++ {
		s := &im.StaticGreedy{G: g, Worlds: 50, Seed: int64(i)}
		s.Select(10)
	}
}

func BenchmarkIMMSelect(b *testing.B) {
	g := benchGraph(400)
	for i := 0; i < b.N; i++ {
		s := &im.IMM{G: g, Seed: int64(i), MaxSamples: 4000}
		s.Select(10)
	}
}

func BenchmarkSolverComparison(b *testing.B) {
	s := benchSettings(dataset.Bitcoin)
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunSolverComparison(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLDPComparison(b *testing.B) {
	s := benchSettings(dataset.LastFM)
	s.Epsilons = []float64{1, 4}
	for i := 0; i < b.N; i++ {
		if _, err := expt.RunLDPComparison(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDualStageSampling(b *testing.B) {
	g := benchGraph(2000)
	cfg := sampling.FreqConfig{
		SubgraphSize: 16, Tau: 0.3, Mu: 1, SamplingRate: 0.2,
		WalkLength: 200, Threshold: 4, BESDivisor: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := sampling.ExtractDualStage(g, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPSGDIteration(b *testing.B) {
	// One full private training run amortized per iteration count.
	ds, err := dataset.Generate(dataset.Email, dataset.Options{Scale: 0.3, Seed: 1, InfluenceProb: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := ds.TrainSubgraph().G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Train(context.Background(), g, core.Config{
			Mode: core.ModeDual, Epsilon: 3, Iterations: 10,
			SubgraphSize: 12, HiddenDim: 16, Layers: 2, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if math.IsNaN(res.Sigma) {
			b.Fatal("NaN sigma")
		}
	}
}

// BenchmarkTrainNoObserver pins the observability zero-cost contract: a
// Config with a nil Observer must train at full speed, and the emit
// helpers must be allocation-free when unobserved (the boxing happens
// behind the nil check, so escape analysis removes it entirely).
func BenchmarkTrainNoObserver(b *testing.B) {
	if n := testing.AllocsPerRun(1000, func() {
		obs.Emit(nil, obs.IterationEnd{Iter: 1, Loss: 0.5, GradNorm: 2})
		obs.StartSpanCtx(context.Background(), nil, "bench").Child("inner").End()
	}); n != 0 {
		b.Fatalf("nil-observer emit allocates %v per op, want 0", n)
	}
	// The context plumbing keeps the same contract: with no parent span
	// and no observer, StartSpanCtx and the accessors touch nothing on
	// the heap, so context-threaded call sites stay free when unobserved.
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		span := obs.StartSpanCtx(ctx, nil, "bench")
		_ = obs.ContextWithSpan(ctx, span)
		_ = obs.SpanFromContext(ctx)
		_ = obs.TraceFromContext(ctx)
		span.End()
	}); n != 0 {
		b.Fatalf("nil-observer context path allocates %v per op, want 0", n)
	}
	ds, err := dataset.Generate(dataset.Email, dataset.Options{Scale: 0.2, Seed: 1, InfluenceProb: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := ds.TrainSubgraph().G
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Train(context.Background(), g, core.Config{
			Mode: core.ModeDual, Epsilon: 3, Iterations: 5,
			SubgraphSize: 12, HiddenDim: 16, Layers: 2, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.LossHistory) != 5 {
			b.Fatalf("got %d losses", len(res.LossHistory))
		}
	}
}

func BenchmarkRDPAccountantEpsilon(b *testing.B) {
	a := dp.Accountant{M: 500, B: 16, Ng: 4, Sigma: 1.5}
	for i := 0; i < b.N; i++ {
		a.Epsilon(100, 1e-5)
	}
}

func BenchmarkCalibrateSigma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dp.CalibrateSigma(3, 1e-5, 100, 16, 500, 4); err != nil {
			b.Fatal(err)
		}
	}
}
