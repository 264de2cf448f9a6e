package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClusteringCoefficientTriangle(t *testing.T) {
	// Complete triangle: every node's two neighbors are connected, C = 1.
	gb := NewBuilder(3, false)
	gb.AddEdge(0, 1, 1)
	gb.AddEdge(1, 2, 1)
	gb.AddEdge(0, 2, 1)
	g := gb.Build()
	if c := ClusteringCoefficient(g); math.Abs(c-1) > 1e-12 {
		t.Fatalf("triangle clustering = %v, want 1", c)
	}
	// Path: middle node's neighbors not connected, C = 0.
	b := NewBuilder(3, false)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	p := b.Build()
	if c := ClusteringCoefficient(p); c != 0 {
		t.Fatalf("path clustering = %v, want 0", c)
	}
	if ClusteringCoefficient(NewBuilder(0, false).Build()) != 0 {
		t.Fatal("empty graph clustering should be 0")
	}
}

func TestClusteringDistinguishesWSFromER(t *testing.T) {
	// Small-world graphs cluster far more than ER at equal density — the
	// property that motivates the Facebook preset's WS model.
	// Ring lattice (WS beta=0): k=4 lattice has C = 0.5.
	n := 100
	b := NewBuilder(n, false)
	for u := 0; u < n; u++ {
		b.AddEdge(NodeID(u), NodeID((u+1)%n), 1)
		b.AddEdge(NodeID(u), NodeID((u+2)%n), 1)
	}
	ws := b.Build()
	cWS := ClusteringCoefficient(ws)
	if math.Abs(cWS-0.5) > 1e-9 {
		t.Fatalf("lattice clustering = %v, want 0.5", cWS)
	}
}

func TestKCoreKnownGraphs(t *testing.T) {
	// K4 plus a pendant: K4 nodes have core 3, pendant core 1.
	b := NewBuilder(5, false)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(NodeID(i), NodeID(j), 1)
		}
	}
	b.AddEdge(0, 4, 1)
	g := b.Build()
	core := KCore(g)
	for v := 0; v < 4; v++ {
		if core[v] != 3 {
			t.Fatalf("K4 node %d core = %d, want 3 (all: %v)", v, core[v], core)
		}
	}
	if core[4] != 1 {
		t.Fatalf("pendant core = %d, want 1", core[4])
	}
}

func TestKCoreStar(t *testing.T) {
	// Star K1,5: every node (including the hub) has core 1.
	b := NewBuilder(6, false)
	for v := 1; v < 6; v++ {
		b.AddEdge(0, NodeID(v), 1)
	}
	g := b.Build()
	for v, c := range KCore(g) {
		if c != 1 {
			t.Fatalf("star node %d core = %d, want 1", v, c)
		}
	}
}

func TestKCoreEmptyAndIsolated(t *testing.T) {
	if len(KCore(NewBuilder(0, false).Build())) != 0 {
		t.Fatal("empty graph should have no cores")
	}
	g := NewBuilder(3, true).Build()
	for _, c := range KCore(g) {
		if c != 0 {
			t.Fatalf("isolated nodes must have core 0, got %v", KCore(g))
		}
	}
}

// Property: every node's core number is at most its weak degree, and the
// k-core subgraph induced by {v : core(v) >= k} has min weak degree >= k
// within it for k = degeneracy.
func TestKCoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		b := NewBuilder(n, false)
		seen := map[[2]NodeID]bool{}
		for i := 0; i < 60; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if k := [2]NodeID{min(u, v), max(u, v)}; u != v && !seen[k] {
				seen[k] = true
				b.AddEdge(u, v, 1)
			}
		}
		g := b.Build()
		core := KCore(g)
		weakDeg := func(v NodeID, members map[NodeID]bool) int {
			seen := map[NodeID]bool{}
			for _, a := range g.Out(v) {
				if a.To != v && (members == nil || members[a.To]) {
					seen[a.To] = true
				}
			}
			for _, a := range g.In(v) {
				if a.To != v && (members == nil || members[a.To]) {
					seen[a.To] = true
				}
			}
			return len(seen)
		}
		k := 0
		for v := 0; v < n; v++ {
			if core[v] > weakDeg(NodeID(v), nil) {
				return false
			}
			if core[v] > k {
				k = core[v]
			}
		}
		if k == 0 {
			return true
		}
		members := map[NodeID]bool{}
		for v := 0; v < n; v++ {
			if core[v] >= k {
				members[NodeID(v)] = true
			}
		}
		for v := range members {
			if weakDeg(v, members) < k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
