package privim

import (
	"context"
	"math"
	"strings"
	"testing"

	"privim/internal/dataset"
	"privim/internal/gnn"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/sampling"
)

// quickDataset returns a small deterministic training graph.
func quickDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Email, dataset.Options{Scale: 0.2, Seed: 1, InfluenceProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// quickConfig keeps training tiny for unit tests.
func quickConfig(mode Mode) Config {
	return Config{
		Mode:         mode,
		HiddenDim:    8,
		Layers:       2,
		Epsilon:      4,
		SubgraphSize: 10,
		SamplingRate: 0.6,
		WalkLength:   100,
		Threshold:    3,
		Iterations:   5,
		BatchSize:    4,
		Seed:         7,
	}
}

func TestTrainAllModes(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	for _, mode := range []Mode{ModeDual, ModeNaive, ModeHPGRAT, ModeHP, ModeEGN, ModeNonPrivate} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			res, err := Train(context.Background(), train, quickConfig(mode))
			if err != nil {
				t.Fatal(err)
			}
			if res.Model == nil || res.NumSubgraphs == 0 {
				t.Fatalf("result incomplete: %v", res)
			}
			if mode == ModeNonPrivate {
				if res.Private || res.Sigma != 0 {
					t.Fatalf("non-private run reported privacy: %v", res)
				}
			} else {
				if !res.Private || res.Sigma <= 0 {
					t.Fatalf("private run missing noise: %v", res)
				}
				if res.EpsilonSpent > 4*1.001 {
					t.Fatalf("epsilon spent %v exceeds budget 4", res.EpsilonSpent)
				}
			}
			// Seed selection works end to end.
			test := ds.TestSubgraph().G
			seeds := res.SelectSeeds(test, 5)
			if err := im.ValidateSeeds(seeds, test.NumNodes()); err != nil {
				t.Fatal(err)
			}
			if len(seeds) != 5 {
				t.Fatalf("got %d seeds", len(seeds))
			}
			// Scores are probabilities.
			for i, s := range res.Scores(test) {
				if s <= 0 || s >= 1 || math.IsNaN(s) {
					t.Fatalf("score[%d] = %v", i, s)
				}
			}
		})
	}
}

func TestTrainSCSMode(t *testing.T) {
	ds := quickDataset(t)
	res, err := Train(context.Background(), ds.TrainSubgraph().G, quickConfig(ModeSCS))
	if err != nil {
		t.Fatal(err)
	}
	if res.OccurrenceBound != 3 {
		t.Fatalf("SCS occurrence bound %d, want threshold 3", res.OccurrenceBound)
	}
	if res.MaxOccurrence > 3 {
		t.Fatalf("audited occurrence %d exceeds M=3", res.MaxOccurrence)
	}
}

func TestDualStageOccurrenceInvariant(t *testing.T) {
	ds := quickDataset(t)
	res, err := Train(context.Background(), ds.TrainSubgraph().G, quickConfig(ModeDual))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxOccurrence > res.Config.Threshold {
		t.Fatalf("PrivIM* audit %d exceeds threshold %d", res.MaxOccurrence, res.Config.Threshold)
	}
}

func TestNaiveUsesLemma1Bound(t *testing.T) {
	ds := quickDataset(t)
	cfg := quickConfig(ModeNaive)
	cfg.Theta = 3
	res, err := Train(context.Background(), ds.TrainSubgraph().G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 1 with theta=3, r=2: 1+3+9 = 13, capped at container size.
	want := 13
	if res.NumSubgraphs < want {
		want = res.NumSubgraphs
	}
	if res.OccurrenceBound != want {
		t.Fatalf("naive bound %d, want min(13, m=%d)", res.OccurrenceBound, res.NumSubgraphs)
	}
}

// TestAccountedBoundRefusesOverOccurrence: node 0 sits in all three
// subgraphs of a hand-built container, so the container cannot be
// accounted for at N_g = 2, and the error names both numbers. A bound
// above the container size is capped at m.
func TestAccountedBoundRefusesOverOccurrence(t *testing.T) {
	b := graph.NewBuilder(4, true)
	for v := graph.NodeID(1); v <= 3; v++ {
		b.AddEdge(0, v, 1)
	}
	g := b.Build()
	c := sampling.NewContainer(g.NumNodes())
	for v := graph.NodeID(1); v <= 3; v++ {
		c.Add(graph.Induce(g, []graph.NodeID{0, v}))
	}
	if ng, err := accountedBound(c, 10); err != nil || ng != 3 {
		t.Fatalf("accountedBound(m=3, bound 10) = %d, %v; want 3, nil", ng, err)
	}
	_, err := accountedBound(c, 2)
	if err == nil {
		t.Fatal("a node in 3 subgraphs passed an occurrence bound of 2")
	}
	if msg := err.Error(); !strings.Contains(msg, "3 subgraphs") || !strings.Contains(msg, "bound 2") {
		t.Fatalf("error %q does not name the occurrence 3 and the bound 2", msg)
	}
}

// TestPresetsTrainWithinOccurrenceBound trains every private mode on
// every paper preset, at the default θ and at θ=3, where Lemma 1's bound
// drops below the container size: Train checks each container against
// the bound its accountant uses, so none may fail.
func TestPresetsTrainWithinOccurrenceBound(t *testing.T) {
	for _, p := range dataset.AllPresets() {
		ds, err := dataset.Generate(p, dataset.Options{Scale: 0.05, Seed: 1, InfluenceProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := ds.TrainSubgraph().G
		for _, mode := range []Mode{ModeNaive, ModeSCS, ModeDual, ModeEGN, ModeHP, ModeHPGRAT} {
			for _, theta := range []int{0, 3} {
				cfg := Config{Mode: mode, Epsilon: 3, Iterations: 2, HiddenDim: 4, Theta: theta, Seed: 1}
				res, err := Train(context.Background(), g, cfg)
				if err != nil {
					t.Fatalf("%s on %s, θ=%d: %v", mode, p, theta, err)
				}
				if res.MaxOccurrence > res.OccurrenceBound {
					t.Fatalf("%s on %s, θ=%d: occurrence %d above bound %d", mode, p, theta, res.MaxOccurrence, res.OccurrenceBound)
				}
			}
		}
	}
}

func TestSmallerThresholdLessNoise(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	lo := quickConfig(ModeDual)
	lo.Threshold = 2
	hi := quickConfig(ModeDual)
	hi.Threshold = 12
	resLo, err := Train(context.Background(), train, lo)
	if err != nil {
		t.Fatal(err)
	}
	resHi, err := Train(context.Background(), train, hi)
	if err != nil {
		t.Fatal(err)
	}
	if resLo.NoiseScale >= resHi.NoiseScale {
		t.Fatalf("noise with M=2 (%v) should be < M=12 (%v)", resLo.NoiseScale, resHi.NoiseScale)
	}
}

func TestEGNGetsWorstNoise(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	egn, err := Train(context.Background(), train, quickConfig(ModeEGN))
	if err != nil {
		t.Fatal(err)
	}
	dual, err := Train(context.Background(), train, quickConfig(ModeDual))
	if err != nil {
		t.Fatal(err)
	}
	if egn.NoiseScale <= dual.NoiseScale {
		t.Fatalf("EGN noise %v should exceed PrivIM* noise %v", egn.NoiseScale, dual.NoiseScale)
	}
}

// TestConfigErrors: every field value no run can use is an error from
// Validate and from Train, never a panic.
func TestConfigErrors(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"unknown mode", func(c *Config) { c.Mode = "bogus" }},
		{"unknown objective", func(c *Config) { c.Objective = "bogus" }},
		{"negative epsilon", func(c *Config) { c.Epsilon = -2 }},
		{"NaN epsilon", func(c *Config) { c.Epsilon = math.NaN() }},
		{"negative delta", func(c *Config) { c.Delta = -1 }},
		{"delta 1", func(c *Config) { c.Delta = 1 }},
		{"delta 2", func(c *Config) { c.Delta = 2 }},
		{"negative iterations", func(c *Config) { c.Iterations = -1 }},
		{"negative iterations, non-private", func(c *Config) { c.Iterations, c.Mode = -1, ModeNonPrivate }},
		{"negative checkpoint cadence", func(c *Config) { c.CheckpointEvery = -1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := quickConfig(ModeDual)
			c.set(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted the config")
			}
			if _, err := Train(context.Background(), train, cfg); err == nil {
				t.Error("Train accepted the config")
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	c, err := Config{}.normalize(1000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode != ModeDual || c.GNNKind != gnn.GRAT || c.HiddenDim != 32 || c.Layers != 3 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	if c.Theta != 10 || c.Tau != 0.3 || c.WalkLength != 200 {
		t.Fatalf("sampling defaults wrong: %+v", c)
	}
	if c.SamplingRate != 256.0/1000 {
		t.Fatalf("q default = %v, want 0.256", c.SamplingRate)
	}
	if !math.IsInf(c.Epsilon, 1) {
		t.Fatalf("epsilon default should be +Inf (non-private until set), got %v", c.Epsilon)
	}
	// Baseline kinds.
	ce, _ := Config{Mode: ModeEGN}.normalize(100)
	if ce.GNNKind != gnn.GCN {
		t.Fatalf("EGN should default to GCN, got %v", ce.GNNKind)
	}
	ch, _ := Config{Mode: ModeHPGRAT}.normalize(100)
	if ch.GNNKind != gnn.GRAT {
		t.Fatalf("HP-GRAT should default to GRAT, got %v", ch.GNNKind)
	}
}

func TestResultString(t *testing.T) {
	ds := quickDataset(t)
	res, err := Train(context.Background(), ds.TrainSubgraph().G, quickConfig(ModeDual))
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMaxCoverObjective(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	cfg := quickConfig(ModeDual)
	cfg.Objective = ObjectiveMaxCover
	cfg.Iterations = 20
	res, err := Train(context.Background(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Private {
		t.Fatal("max-cover objective must keep the DP pipeline")
	}
	test := ds.TestSubgraph().G
	seeds := res.SelectSeeds(test, 5)
	if len(seeds) != 5 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	// Unknown objective errors.
	bad := quickConfig(ModeDual)
	bad.Objective = "bogus"
	if _, err := Train(context.Background(), train, bad); err == nil {
		t.Fatal("expected error for unknown objective")
	}
}

// TestLossHistoryConverges: non-private training reduces the loss,
// measured as the drop from the mean of the first 5 to the mean of the
// last 5 of 40 iterations. One seed cannot show it: the drop has a
// standard deviation of about 0.05 across seeds against a mean of about
// 0.07, so some 6 % of seeds show none. The mean over seeds 1–10 can:
// 10-seed windows read 0.045–0.086, and −0.007 to +0.016 when a
// LearnRate of 1e-12 stops the model from learning.
func TestLossHistoryConverges(t *testing.T) {
	ds := quickDataset(t)
	const seeds, iters, window = 10, 40, 5
	drop := 0.0
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := quickConfig(ModeNonPrivate)
		cfg.Iterations = iters
		cfg.Seed = seed
		res, err := Train(context.Background(), ds.TrainSubgraph().G, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.LossHistory) != iters {
			t.Fatalf("seed %d: loss history length %d, want %d", seed, len(res.LossHistory), iters)
		}
		for i, l := range res.LossHistory {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				t.Fatalf("seed %d: loss[%d] = %v", seed, i, l)
			}
		}
		for i := 0; i < window; i++ {
			drop += res.LossHistory[i] - res.LossHistory[iters-1-i]
		}
	}
	drop /= seeds * window
	if drop <= 0.025 {
		t.Fatalf("mean loss drop over seeds 1–%d is %.4f, want > 0.025", seeds, drop)
	}
}

func TestTrainTimingPopulated(t *testing.T) {
	ds := quickDataset(t)
	res, err := Train(context.Background(), ds.TrainSubgraph().G, quickConfig(ModeDual))
	if err != nil {
		t.Fatal(err)
	}
	if res.Preprocess <= 0 || res.PerEpoch <= 0 {
		t.Fatalf("timings not recorded: pre=%v epoch=%v", res.Preprocess, res.PerEpoch)
	}
}
