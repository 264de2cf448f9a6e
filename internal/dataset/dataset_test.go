package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privim/internal/graph"
)

func TestBarabasiAlbertShape(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := BarabasiAlbert(500, 3, rng)
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d, want 500", g.NumNodes())
	}
	// Seed clique: C(4,2)=6 edges, then 496 nodes × 3 edges.
	wantEdges := 6 + 496*3
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	// Heavy tail: max degree should far exceed average.
	st := g.ComputeStats()
	if float64(st.MaxOut) < 3*st.AvgDegree {
		t.Errorf("BA max degree %d not heavy-tailed vs avg %.2f", st.MaxOut, st.AvgDegree)
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= m")
		}
	}()
	BarabasiAlbert(3, 3, rand.New(rand.NewSource(1)))
}

func TestWattsStrogatzShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := WattsStrogatz(200, 6, 0.1, rng)
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d, want 200", g.NumNodes())
	}
	if g.NumEdges() != 200*6/2 {
		t.Fatalf("edges = %d, want %d (rewiring preserves count)", g.NumEdges(), 200*3)
	}
	// beta=0 must be the exact ring lattice.
	lattice := WattsStrogatz(50, 4, 0, rng)
	for u := 0; u < 50; u++ {
		for d := 1; d <= 2; d++ {
			if !lattice.HasEdge(graph.NodeID(u), graph.NodeID((u+d)%50)) {
				t.Fatalf("lattice edge %d-%d missing at beta=0", u, (u+d)%50)
			}
		}
	}
}

func TestScaleFreeDirected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := ScaleFreeDirected(400, 6, rng)
	st := g.ComputeStats()
	if st.Nodes != 400 || !st.Directed {
		t.Fatalf("stats %+v", st)
	}
	if st.AvgDegree < 3 || st.AvgDegree > 9 {
		t.Errorf("avg out-degree %.2f far from target 6", st.AvgDegree)
	}
	if float64(st.MaxIn) < 3*st.AvgDegree {
		t.Errorf("expected in-degree hubs, max in-degree %d vs avg %.2f", st.MaxIn, st.AvgDegree)
	}
}

// TestPresetFingerprintsPinned pins every preset's graph at two scales
// and two seeds: each generator must be a function of its seed alone,
// in any process and on any call.
func TestPresetFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		preset Preset
		scale  float64
		seed   int64
		want   uint64
	}{
		{Email, 0.02, 1, 0xf6863452db6a8d00},
		{Email, 0.02, 7, 0x75ab8b323fbed139},
		{Email, 0.05, 1, 0x868dfd42b0f3c5d9},
		{Email, 0.05, 7, 0x9b1aade2c3e26182},
		{Bitcoin, 0.02, 1, 0x7399880663eb661a},
		{Bitcoin, 0.02, 7, 0x56cafefe2a77c1ec},
		{Bitcoin, 0.05, 1, 0xa73726ef4c517d58},
		{Bitcoin, 0.05, 7, 0x2255d4e87c09bc6f},
		{LastFM, 0.02, 1, 0x171104f7b547b09a},
		{LastFM, 0.02, 7, 0x3edc9b00347bcab0},
		{LastFM, 0.05, 1, 0x77e95118610b8193},
		{LastFM, 0.05, 7, 0xb39437d90148fddd},
		{HepPh, 0.02, 1, 0xa9c6b6e91056e192},
		{HepPh, 0.02, 7, 0xf5b694eb8667ec06},
		{HepPh, 0.05, 1, 0x96100f4602a73c6d},
		{HepPh, 0.05, 7, 0x2ef668006e7f2b31},
		{Facebook, 0.02, 1, 0x97103d7ca077ce10},
		{Facebook, 0.02, 7, 0x4eaa97367daa9e3d},
		{Facebook, 0.05, 1, 0xf991a2e2a2326309},
		{Facebook, 0.05, 7, 0x919ae18d6b0c1394},
		{Gowalla, 0.02, 1, 0xf66c175306e92ef9},
		{Gowalla, 0.02, 7, 0x708da4e2fbe11a6a},
		{Gowalla, 0.05, 1, 0xb9be25536f696b49},
		{Gowalla, 0.05, 7, 0x209857b97c4133f7},
	} {
		for call := 0; call < 2; call++ {
			ds, err := Generate(tc.preset, Options{Scale: tc.scale, Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			if got := ds.Graph.Fingerprint(); got != tc.want {
				t.Fatalf("%s scale %v seed %d call %d: fingerprint %#016x, want %#016x",
					tc.preset, tc.scale, tc.seed, call, got, tc.want)
			}
		}
	}
}

func TestGeneratePresets(t *testing.T) {
	for _, p := range AllPresets() {
		p := p
		t.Run(string(p), func(t *testing.T) {
			ds, err := Generate(p, Options{Scale: 0.05, Seed: 1, InfluenceProb: 1})
			if err != nil {
				t.Fatal(err)
			}
			spec, _ := SpecFor(p)
			wantN := int(float64(spec.Nodes) * 0.05)
			if wantN < 32 {
				wantN = 32
			}
			if ds.Graph.NumNodes() != wantN {
				t.Fatalf("nodes = %d, want %d", ds.Graph.NumNodes(), wantN)
			}
			if ds.Graph.Directed() != spec.Directed {
				t.Fatalf("directed = %v, want %v", ds.Graph.Directed(), spec.Directed)
			}
			st := ds.Graph.ComputeStats()
			// Average degree should land within 2x of the paper's target
			// (generators are tuned, not exact).
			ratio := st.AvgDegree / spec.AvgDegree
			if !spec.Directed {
				ratio = st.AvgDegree / spec.AvgDegree // out-degree counts both arc dirs for undirected
			}
			if ratio < 0.3 || ratio > 3 {
				t.Errorf("avg degree %.2f vs paper %.2f (ratio %.2f)", st.AvgDegree, spec.AvgDegree, ratio)
			}
			// 50/50 split covering all nodes exactly once.
			if len(ds.Train)+len(ds.Test) != ds.Graph.NumNodes() {
				t.Fatalf("split sizes %d+%d != %d", len(ds.Train), len(ds.Test), ds.Graph.NumNodes())
			}
			seen := make(map[graph.NodeID]bool)
			for _, v := range append(append([]graph.NodeID{}, ds.Train...), ds.Test...) {
				if seen[v] {
					t.Fatalf("node %d in both splits", v)
				}
				seen[v] = true
			}
		})
	}
}

func TestGenerateUnknownPreset(t *testing.T) {
	if _, err := Generate(Preset("nope"), Options{}); err == nil {
		t.Fatal("expected error for unknown preset")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Email, Options{Scale: 0.2, Seed: 99, InfluenceProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Email, Options{Scale: 0.2, Seed: 99, InfluenceProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", a.Graph.NumEdges(), b.Graph.NumEdges())
	}
	ae, be := a.Graph.Edges(), b.Graph.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
}

func TestGenerateWeightedCascade(t *testing.T) {
	ds, err := Generate(Bitcoin, Options{Scale: 0.05, Seed: 2}) // InfluenceProb 0 -> WC
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	for v := 0; v < g.NumNodes(); v++ {
		in := g.In(graph.NodeID(v))
		for _, a := range in {
			want := 1 / float64(len(in))
			if math.Abs(a.Weight-want) > 1e-12 {
				t.Fatalf("node %d: in-arc weight %v, want 1/indegree=%v", v, a.Weight, want)
			}
		}
	}
}

func TestGeneratePartitioned(t *testing.T) {
	parts, err := GeneratePartitioned(4, 200, Options{Seed: 3, InfluenceProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(parts))
	}
	for i, p := range parts {
		if p.Graph.NumNodes() != 200 {
			t.Fatalf("part %d has %d nodes", i, p.Graph.NumNodes())
		}
		if p.Name != Friendster {
			t.Fatalf("part %d name %q", i, p.Name)
		}
	}
	// Different parts must differ (independent seeds): compare full edge
	// lists, since the BA seed clique is identical by construction.
	a, b := parts[0].Graph.Edges(), parts[1].Graph.Edges()
	identical := len(a) == len(b)
	if identical {
		for i := range a {
			if a[i] != b[i] {
				identical = false
				break
			}
		}
	}
	if identical {
		t.Error("partitions identical; seeds not varied")
	}
}

func TestGeneratePartitionedInvalid(t *testing.T) {
	if _, err := GeneratePartitioned(0, 200, Options{}); err == nil {
		t.Fatal("expected error for 0 parts")
	}
	if _, err := GeneratePartitioned(2, 8, Options{}); err == nil {
		t.Fatal("expected error for tiny parts")
	}
}

func TestTrainTestSubgraphs(t *testing.T) {
	ds, err := Generate(Email, Options{Scale: 0.1, Seed: 5, InfluenceProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := ds.TrainSubgraph()
	te := ds.TestSubgraph()
	if tr.G.NumNodes() != len(ds.Train) || te.G.NumNodes() != len(ds.Test) {
		t.Fatalf("subgraph sizes %d/%d, want %d/%d", tr.G.NumNodes(), te.G.NumNodes(), len(ds.Train), len(ds.Test))
	}
}

func TestStructuralFeatures(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	x := StructuralFeatures(g)
	if len(x) != 3*NumStructuralFeatures {
		t.Fatalf("feature length %d, want %d", len(x), 3*NumStructuralFeatures)
	}
	// Node 0: out-degree 2 (max), so feature 0 == 1.
	if x[0] != 1 {
		t.Fatalf("node 0 out-degree feature = %v, want 1 (it is the max)", x[0])
	}
	// Node 2: out-degree 0, so log(1)/norm = 0.
	if x[2*NumStructuralFeatures] != 0 {
		t.Fatalf("node 2 out-degree feature = %v, want 0", x[2*NumStructuralFeatures])
	}
	// Bias channel always 1.
	for v := 0; v < 3; v++ {
		if x[v*NumStructuralFeatures+3] != 1 {
			t.Fatalf("bias channel for node %d = %v", v, x[v*NumStructuralFeatures+3])
		}
	}
	// All features in [0,1].
	for i, f := range x {
		if f < 0 || f > 1 || math.IsNaN(f) {
			t.Fatalf("feature %d = %v outside [0,1]", i, f)
		}
	}
}

// Property: structural features are always finite and bounded for random graphs.
func TestStructuralFeaturesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ScaleFreeDirected(40, 2, rng)
		for _, v := range StructuralFeatures(g) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
