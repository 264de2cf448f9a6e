package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeDirected(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	g := b.Build()

	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatalf("directed edge direction wrong: 0->1=%v 1->0=%v", g.HasEdge(0, 1), g.HasEdge(1, 0))
	}
	if w, ok := g.Weight(0, 1); !ok || w != 0.5 {
		t.Fatalf("Weight(0,1) = %v,%v want 0.5,true", w, ok)
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 || g.InDegree(2) != 1 {
		t.Fatalf("degrees wrong: out(0)=%d in(1)=%d in(2)=%d", g.OutDegree(0), g.InDegree(1), g.InDegree(2))
	}
}

func TestAddEdgeUndirected(t *testing.T) {
	b := NewBuilder(3, false)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge must be traversable both ways")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 for single undirected edge", g.NumEdges())
	}
	if len(g.Edges()) != 1 {
		t.Fatalf("Edges() reported %d entries, want 1", len(g.Edges()))
	}
}

func TestAddEdgePanics(t *testing.T) {
	b := NewBuilder(2, true)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"out of range", func() { b.AddEdge(0, 5, 1) }},
		{"negative node", func() { b.AddEdge(-1, 0, 1) }},
		{"weight > 1", func() { b.AddEdge(0, 1, 1.5) }},
		{"negative weight", func() { b.AddEdge(0, 1, -0.1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestSetUniformWeights(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1, 0.2)
	b.AddEdge(1, 2, 0.9)
	g := b.Build()
	g.SetUniformWeights(1)
	for _, e := range g.Edges() {
		if e.Weight != 1 {
			t.Fatalf("edge %v weight %v after SetUniformWeights(1)", e, e.Weight)
		}
	}
	// Reverse adjacency must be updated too.
	for _, a := range g.In(2) {
		if a.Weight != 1 {
			t.Fatalf("in-arc weight %v, want 1", a.Weight)
		}
	}
}

func TestSetWeightedCascade(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 0, 1)
	g := b.Build()
	g.SetWeightedCascade()
	if w, _ := g.Weight(0, 3); w != 1.0/3 {
		t.Fatalf("w(0,3) = %v, want 1/3", w)
	}
	if w, _ := g.Weight(3, 0); w != 1 {
		t.Fatalf("w(3,0) = %v, want 1 (indegree(0)=1)", w)
	}
}

func TestComputeStats(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(0, 3, 1)
	b.AddEdge(1, 3, 1)
	g := b.Build()
	s := g.ComputeStats()
	if s.Nodes != 4 || s.Edges != 4 {
		t.Fatalf("stats %+v: want 4 nodes 4 edges", s)
	}
	if s.MaxOut != 3 || s.MaxIn != 2 {
		t.Fatalf("stats %+v: want MaxOut=3 MaxIn=2", s)
	}
	if s.AvgDegree != 1 {
		t.Fatalf("AvgDegree = %v, want 1", s.AvgDegree)
	}
}

func TestProjectInDegreeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(50, true)
	for u := 0; u < 49; u++ {
		b.AddEdge(NodeID(u), 49, 1) // node 49 has in-degree 49
		if u > 0 {
			b.AddEdge(NodeID(u), NodeID(u-1), 0.5)
		}
	}
	g := b.Build()
	const theta = 5
	p := ProjectInDegree(g, theta, rng)
	for v := 0; v < p.NumNodes(); v++ {
		if d := p.InDegree(NodeID(v)); d > theta {
			t.Fatalf("node %d has in-degree %d > theta %d after projection", v, d, theta)
		}
	}
	if p.InDegree(49) != theta {
		t.Fatalf("hub in-degree %d, want exactly theta=%d", p.InDegree(49), theta)
	}
	// Projection must not invent edges.
	for v := 0; v < p.NumNodes(); v++ {
		for _, a := range p.Out(NodeID(v)) {
			if !g.HasEdge(NodeID(v), a.To) {
				t.Fatalf("projection invented edge %d->%d", v, a.To)
			}
		}
	}
}

func TestProjectInDegreePreservesSmallNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 0.4)
	b.AddEdge(2, 3, 0.6)
	g := b.Build()
	p := ProjectInDegree(g, 10, rng)
	if p.NumEdges() != 2 || !p.HasEdge(0, 1) || !p.HasEdge(2, 3) {
		t.Fatalf("projection with large theta should be identity, got %v", p)
	}
}

// Property: projection never increases any in-degree and respects theta.
func TestProjectInDegreeProperty(t *testing.T) {
	f := func(seed int64, rawTheta uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := int(rawTheta%8) + 1
		n := 30
		b := NewBuilder(n, true)
		for i := 0; i < 120; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			b.AddEdge(u, v, rng.Float64())
		}
		g := b.Build()
		p := ProjectInDegree(g, theta, rng)
		for v := 0; v < n; v++ {
			if p.InDegree(NodeID(v)) > theta {
				return false
			}
			if p.InDegree(NodeID(v)) > g.InDegree(NodeID(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxOccurrence(t *testing.T) {
	cases := []struct {
		theta, r, want int
	}{
		{10, 0, 1},
		{10, 1, 11},
		{10, 3, 1111},
		{2, 3, 15},
		{1, 5, 6},
	}
	for _, tc := range cases {
		if got := MaxOccurrence(tc.theta, tc.r); got != tc.want {
			t.Errorf("MaxOccurrence(%d,%d) = %d, want %d", tc.theta, tc.r, got, tc.want)
		}
	}
}

func TestMaxOccurrenceSaturates(t *testing.T) {
	got := MaxOccurrence(1000, 50)
	if got != int(^uint(0)>>1) {
		t.Fatalf("MaxOccurrence(1000,50) = %d, want saturation at maxInt", got)
	}
}

func TestInduce(t *testing.T) {
	b := NewBuilder(5, true)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(1, 2, 0.2)
	b.AddEdge(2, 3, 0.3)
	b.AddEdge(3, 0, 0.4)
	b.AddEdge(4, 0, 0.5)
	g := b.Build()

	sub := Induce(g, []NodeID{2, 0, 1, 2}) // duplicate 2 ignored
	if sub.G.NumNodes() != 3 {
		t.Fatalf("induced nodes = %d, want 3", sub.G.NumNodes())
	}
	if sub.Orig[0] != 2 || sub.Orig[1] != 0 || sub.Orig[2] != 1 {
		t.Fatalf("Orig order %v, want [2 0 1] (first-appearance order)", sub.Orig)
	}
	// Edges inside {0,1,2}: 0->1, 1->2. Local: 0 is local 1, 1 is local 2, 2 is local 0.
	if sub.G.NumEdges() != 2 {
		t.Fatalf("induced edges = %d, want 2", sub.G.NumEdges())
	}
	if !sub.G.HasEdge(1, 2) { // parent 0->1
		t.Fatal("missing induced edge parent 0->1")
	}
	if !sub.G.HasEdge(2, 0) { // parent 1->2
		t.Fatal("missing induced edge parent 1->2")
	}
	if !sub.Contains(2) || sub.Contains(4) {
		t.Fatal("Contains wrong")
	}
}

func TestRemoveNodes(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	out, keep := RemoveNodes(g, map[NodeID]bool{1: true})
	if out.NumNodes() != 3 {
		t.Fatalf("nodes after removal = %d, want 3", out.NumNodes())
	}
	if len(keep) != 3 || keep[0] != 0 || keep[1] != 2 || keep[2] != 3 {
		t.Fatalf("keep = %v, want [0 2 3]", keep)
	}
	// Only edge 2->3 survives, as new IDs 1->2.
	if out.NumEdges() != 1 || !out.HasEdge(1, 2) {
		t.Fatalf("edges after removal wrong: %d edges", out.NumEdges())
	}
}

func TestBFSOrder(t *testing.T) {
	b := NewBuilder(6, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 3, 1)
	b.AddEdge(2, 4, 1)
	g := b.Build()
	order := BFSOrder(g, 0, 0)
	if len(order) != 5 {
		t.Fatalf("BFS reached %d nodes, want 5 (node 5 isolated)", len(order))
	}
	if order[0] != 0 {
		t.Fatalf("BFS must start at root, got %v", order)
	}
	limited := BFSOrder(g, 0, 3)
	if len(limited) != 3 {
		t.Fatalf("limited BFS returned %d nodes, want 3", len(limited))
	}
}

func TestBFSOrderDepth(t *testing.T) {
	b := NewBuilder(6, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(0, 4, 1)
	g := b.Build()
	for depth, want := range map[int]int{0: 1, 1: 3, 2: 4, 5: 5} {
		if got := BFSOrderDepth(g, 0, depth); len(got) != want {
			t.Errorf("depth %d: reached %d nodes, want %d", depth, len(got), want)
		}
	}
	if got := BFSOrderDepth(g, 0, 1); got[0] != 0 {
		t.Fatalf("order must start at root, got %v", got)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 0.25)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 0, 0.125)
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 4 || got.NumEdges() != 3 {
		t.Fatalf("round trip: %v, want 4 nodes 3 edges", got)
	}
	if !got.Directed() {
		t.Fatal("directedness lost in round trip")
	}
	if w, ok := got.Weight(3, 0); !ok || w != 0.125 {
		t.Fatalf("weight lost: %v %v", w, ok)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{
		"0\n",
		"a b\n",
		"0 b\n",
		"0 1 x\n",
	} {
		if _, err := ReadEdgeList(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("ReadEdgeList(%q): expected error", bad)
		}
	}
}

// TestReadEdgeListDirectedValues checks that a header's directed= takes 0
// or 1 only. Any other value, an empty one included, is an error naming
// its line, also in a header after the first edge, which no longer
// shapes the graph.
func TestReadEdgeListDirectedValues(t *testing.T) {
	for in, want := range map[string]bool{
		"# privim-edgelist nodes=2 directed=0\n0 1\n": false,
		"# privim-edgelist nodes=2 directed=1\n0 1\n": true,
		"0 1\n# privim-edgelist directed=0\n":         true,
	} {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil || g.Directed() != want {
			t.Errorf("ReadEdgeList(%q) = %v, %v; want directed %v", in, g, err, want)
		}
	}
	for in, want := range map[string]string{
		"# privim-edgelist nodes=2 directed=false\n0 1\n": `graph: line 1: bad directed="false" (want 0 or 1)`,
		"# privim-edgelist nodes=2 directed=2\n0 1\n":     `graph: line 1: bad directed="2" (want 0 or 1)`,
		"# privim-edgelist nodes=2 directed=\n0 1\n":      `graph: line 1: bad directed="" (want 0 or 1)`,
		"0 1\n\n# privim-edgelist directed=01\n":          `graph: line 3: bad directed="01" (want 0 or 1)`,
	} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil || err.Error() != want {
			t.Errorf("ReadEdgeList(%q) error = %v, want %s", in, err, want)
		}
	}
}

func TestReadEdgeListDefaults(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewBufferString("# a comment\n0 1\n2 0 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3 (auto-grown)", g.NumNodes())
	}
	if w, _ := g.Weight(0, 1); w != 1 {
		t.Fatalf("default weight = %v, want 1", w)
	}
}

func TestReadEdgeListEmpty(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewBufferString("# privim-edgelist nodes=5 directed=0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.Directed() {
		t.Fatalf("got %v, want 5-node undirected empty graph", g)
	}
}
