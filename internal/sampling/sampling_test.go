package sampling

import (
	"math/rand"
	"testing"
	"testing/quick"

	"privim/internal/dataset"
	"privim/internal/graph"
)

func testGraph(t *testing.T, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := dataset.BarabasiAlbert(n, 3, rng)
	g.SetUniformWeights(1)
	return g
}

func defaultRWR(n int) RWRConfig {
	return RWRConfig{
		SubgraphSize: 10,
		Theta:        5,
		Tau:          0.3,
		SamplingRate: 0.5,
		WalkLength:   200,
		Hops:         3,
	}
}

func defaultFreq() FreqConfig {
	return FreqConfig{
		SubgraphSize: 10,
		Tau:          0.3,
		Mu:           1,
		SamplingRate: 0.5,
		WalkLength:   200,
		Threshold:    4,
		BESDivisor:   2,
	}
}

func TestExtractRWRBasics(t *testing.T) {
	g := testGraph(t, 200, 1)
	rng := rand.New(rand.NewSource(2))
	c, proj, err := ExtractRWR(g, defaultRWR(200), rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("no subgraphs extracted")
	}
	// θ bound respected in the projection.
	for v := 0; v < proj.NumNodes(); v++ {
		if proj.InDegree(graph.NodeID(v)) > 5 {
			t.Fatalf("projection violated theta: node %d in-degree %d", v, proj.InDegree(graph.NodeID(v)))
		}
	}
	for i, s := range c.Subgraphs {
		if s.G.NumNodes() != 10 {
			t.Fatalf("subgraph %d has %d nodes, want exactly 10", i, s.G.NumNodes())
		}
		// Unique original IDs.
		seen := map[graph.NodeID]bool{}
		for _, o := range s.Orig {
			if seen[o] {
				t.Fatalf("subgraph %d repeats original node %d", i, o)
			}
			seen[o] = true
		}
	}
}

// TestExtractRWRKeepsLemma1Bound: on an out-star every leaf has in-degree
// 1, so θ=1 keeps every arc, yet each leaf's weak 1-hop neighborhood holds
// the hub. Without the cap the hub would land in one subgraph per leaf;
// Lemma 1 with θ=1, r=1 allows 2.
func TestExtractRWRKeepsLemma1Bound(t *testing.T) {
	const leaves = 10
	b := graph.NewBuilder(leaves+1, true)
	for i := 1; i <= leaves; i++ {
		b.AddEdge(0, graph.NodeID(i), 1)
	}
	cfg := RWRConfig{SubgraphSize: 2, Theta: 1, Tau: 0.1, SamplingRate: 1, WalkLength: 50, Hops: 1}
	c, _, err := ExtractRWR(b.Build(), cfg, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("no subgraphs on the star")
	}
	if got, bound := c.MaxOccurrence(), graph.MaxOccurrence(cfg.Theta, cfg.Hops); got > bound {
		t.Fatalf("a node appears in %d subgraphs, Lemma 1 allows %d", got, bound)
	}
}

func TestExtractRWRHopBound(t *testing.T) {
	// On a long path with hop bound r, every collected node must be within
	// r weak hops of the start. Build a path so this is easy to verify.
	n := 50
	b := graph.NewBuilder(n, true)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.Build()
	cfg := RWRConfig{SubgraphSize: 4, Theta: 10, Tau: 0.1, SamplingRate: 1, WalkLength: 500, Hops: 3}
	rng := rand.New(rand.NewSource(3))
	c, _, err := ExtractRWR(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("no subgraphs on path graph")
	}
	for _, s := range c.Subgraphs {
		v0 := s.Orig[0]
		for _, o := range s.Orig {
			d := int(o) - int(v0)
			if d < 0 {
				d = -d
			}
			if d > 3 {
				t.Fatalf("node %d is %d hops from start %d, exceeds r=3", o, d, v0)
			}
		}
	}
}

func TestExtractRWRConfigErrors(t *testing.T) {
	g := testGraph(t, 50, 4)
	rng := rand.New(rand.NewSource(1))
	bad := []RWRConfig{
		{SubgraphSize: 1, Theta: 5, Tau: 0.3, SamplingRate: 0.5, WalkLength: 10, Hops: 2},
		{SubgraphSize: 10, Theta: 0, Tau: 0.3, SamplingRate: 0.5, WalkLength: 10, Hops: 2},
		{SubgraphSize: 10, Theta: 5, Tau: 1, SamplingRate: 0.5, WalkLength: 10, Hops: 2},
		{SubgraphSize: 10, Theta: 5, Tau: 0.3, SamplingRate: 0, WalkLength: 10, Hops: 2},
		{SubgraphSize: 10, Theta: 5, Tau: 0.3, SamplingRate: 0.5, WalkLength: 0, Hops: 2},
		{SubgraphSize: 10, Theta: 5, Tau: 0.3, SamplingRate: 0.5, WalkLength: 10, Hops: 0},
		{SubgraphSize: 100, Theta: 5, Tau: 0.3, SamplingRate: 0.5, WalkLength: 10, Hops: 2},
	}
	for i, cfg := range bad {
		if _, _, err := ExtractRWR(g, cfg, rng); err == nil {
			t.Errorf("config %d: expected error for %+v", i, cfg)
		}
	}
}

func TestDualStageThresholdInvariant(t *testing.T) {
	g := testGraph(t, 300, 5)
	cfg := defaultFreq()
	cfg.SamplingRate = 1 // maximum pressure on the threshold
	rng := rand.New(rand.NewSource(6))
	c, err := ExtractDualStage(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("no subgraphs extracted")
	}
	if got := c.MaxOccurrence(); got > cfg.Threshold {
		t.Fatalf("max occurrence %d exceeds threshold M=%d — the exact PrivIM* invariant is broken", got, cfg.Threshold)
	}
}

// Property: the M invariant holds across random graphs and configurations.
func TestDualStageThresholdProperty(t *testing.T) {
	f := func(seed int64, rawM, rawMu uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := dataset.BarabasiAlbert(120, 2, rng)
		g.SetUniformWeights(1)
		cfg := FreqConfig{
			SubgraphSize: 8,
			Tau:          0.3,
			Mu:           0.5 + float64(rawMu%4)*0.5,
			SamplingRate: 1,
			WalkLength:   100,
			Threshold:    int(rawM%6) + 1,
			BESDivisor:   2,
		}
		c, err := ExtractDualStage(g, cfg, rng)
		if err != nil {
			return false
		}
		return c.MaxOccurrence() <= cfg.Threshold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDualStageBESAddsSubgraphs(t *testing.T) {
	g := testGraph(t, 400, 7)
	scs := defaultFreq()
	scs.BESDivisor = 0 // stage 1 only
	rngA := rand.New(rand.NewSource(8))
	onlySCS, err := ExtractDualStage(g, scs, rngA)
	if err != nil {
		t.Fatal(err)
	}
	both := defaultFreq()
	rngB := rand.New(rand.NewSource(8))
	withBES, err := ExtractDualStage(g, both, rngB)
	if err != nil {
		t.Fatal(err)
	}
	if withBES.Len() <= onlySCS.Len() {
		t.Fatalf("BES added no subgraphs: SCS=%d, SCS+BES=%d", onlySCS.Len(), withBES.Len())
	}
	// Stage-2 subgraphs are smaller (n/s).
	smallSeen := false
	for _, s := range withBES.Subgraphs {
		if s.G.NumNodes() == both.SubgraphSize/both.BESDivisor {
			smallSeen = true
		}
	}
	if !smallSeen {
		t.Fatal("no boundary subgraphs of size n/s found")
	}
}

func TestDualStageBESMapsToOriginalIDs(t *testing.T) {
	g := testGraph(t, 300, 9)
	cfg := defaultFreq()
	rng := rand.New(rand.NewSource(10))
	c, err := ExtractDualStage(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.Subgraphs {
		for _, o := range s.Orig {
			if int(o) < 0 || int(o) >= g.NumNodes() {
				t.Fatalf("subgraph %d references node %d outside parent graph", i, o)
			}
		}
		// Induced edges must exist in the parent graph.
		for li, lo := range s.Orig {
			for _, a := range s.G.Out(graph.NodeID(li)) {
				if !g.HasEdge(lo, s.Orig[a.To]) {
					t.Fatalf("subgraph %d edge %d->%d not present in parent", i, lo, s.Orig[a.To])
				}
			}
		}
	}
}

func TestDualStageConfigErrors(t *testing.T) {
	g := testGraph(t, 50, 11)
	rng := rand.New(rand.NewSource(1))
	bad := []FreqConfig{
		{SubgraphSize: 1, Tau: 0.3, Mu: 1, SamplingRate: 0.5, WalkLength: 10, Threshold: 2},
		{SubgraphSize: 10, Tau: 0.3, Mu: 0, SamplingRate: 0.5, WalkLength: 10, Threshold: 2},
		{SubgraphSize: 10, Tau: 0.3, Mu: 1, SamplingRate: 0.5, WalkLength: 10, Threshold: 0},
		{SubgraphSize: 10, Tau: -0.1, Mu: 1, SamplingRate: 0.5, WalkLength: 10, Threshold: 2},
		{SubgraphSize: 10, Tau: 0.3, Mu: 1, SamplingRate: 2, WalkLength: 10, Threshold: 2},
		{SubgraphSize: 10, Tau: 0.3, Mu: 1, SamplingRate: 0.5, WalkLength: 10, Threshold: 2, BESDivisor: -1},
	}
	for i, cfg := range bad {
		if _, err := ExtractDualStage(g, cfg, rng); err == nil {
			t.Errorf("config %d: expected error for %+v", i, cfg)
		}
	}
}

func TestSampleByFrequencyPrefersRare(t *testing.T) {
	cands := []graph.NodeID{0, 1}
	freq := []int{0, 3} // node 0 rare, node 1 frequent
	cfg := FreqConfig{Mu: 2, Threshold: 10}
	rng := rand.New(rand.NewSource(12))
	count0 := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		v, ok := sampleByFrequency(cands, freq, cfg, make([]float64, len(cands)), rng)
		if !ok {
			t.Fatal("sampling failed")
		}
		if v == 0 {
			count0++
		}
	}
	// e_0 = 1, e_1 = 1/16 ⇒ P(0) = 16/17 ≈ 0.94.
	if frac := float64(count0) / trials; frac < 0.9 {
		t.Fatalf("rare node sampled %.2f of the time, want ≈0.94", frac)
	}
}

func TestSampleByFrequencyThresholdExcludes(t *testing.T) {
	cands := []graph.NodeID{0, 1}
	freq := []int{5, 5}
	cfg := FreqConfig{Mu: 1, Threshold: 5}
	rng := rand.New(rand.NewSource(13))
	if _, ok := sampleByFrequency(cands, freq, cfg, make([]float64, len(cands)), rng); ok {
		t.Fatal("all candidates at threshold must be ineligible")
	}
	freq[1] = 4
	v, ok := sampleByFrequency(cands, freq, cfg, make([]float64, len(cands)), rng)
	if !ok || v != 1 {
		t.Fatalf("only eligible candidate should be picked, got %v %v", v, ok)
	}
}

func TestOccurrencesAudit(t *testing.T) {
	c := NewContainer(4)
	c.Add(&graph.Subgraph{G: graph.NewBuilder(2, true).Build(), Orig: []graph.NodeID{0, 1}})
	c.Add(&graph.Subgraph{G: graph.NewBuilder(2, true).Build(), Orig: []graph.NodeID{1, 2}})
	if c.Occurrences[1] != 2 || c.Occurrences[0] != 1 || c.Occurrences[3] != 0 {
		t.Fatalf("occurrences %v", c.Occurrences)
	}
	if c.MaxOccurrence() != 2 {
		t.Fatalf("MaxOccurrence = %d", c.MaxOccurrence())
	}
}
