package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sccOf(t *testing.T, comps [][]NodeID, v NodeID) int {
	t.Helper()
	for i, c := range comps {
		for _, m := range c {
			if m == v {
				return i
			}
		}
	}
	t.Fatalf("node %d in no component", v)
	return -1
}

func TestSCCCycleAndTail(t *testing.T) {
	// Cycle 0→1→2→0 plus tail 2→3→4.
	b := NewBuilder(5, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 4, 1)
	g := b.Build()
	comps := StronglyConnectedComponents(g)
	if len(comps) != 3 {
		t.Fatalf("got %d SCCs, want 3", len(comps))
	}
	if sccOf(t, comps, 0) != sccOf(t, comps, 1) || sccOf(t, comps, 1) != sccOf(t, comps, 2) {
		t.Fatal("cycle nodes must share an SCC")
	}
	if sccOf(t, comps, 3) == sccOf(t, comps, 4) {
		t.Fatal("tail nodes must be singletons")
	}
}

func TestSCCReverseTopologicalOrder(t *testing.T) {
	// Chain of singletons 0→1→2→3: emission order must be reverse
	// topological (sinks first).
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	comps := StronglyConnectedComponents(g)
	if len(comps) != 4 {
		t.Fatalf("got %d SCCs", len(comps))
	}
	// comps[0] must be the sink {3}, comps[3] the source {0}.
	if comps[0][0] != 3 || comps[3][0] != 0 {
		t.Fatalf("order %v not reverse topological", comps)
	}
}

func TestCondensation(t *testing.T) {
	// Two 2-cycles joined by one arc: condensation is a 2-node DAG.
	b := NewBuilder(4, true)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 0, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(3, 2, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(0, 2, 1) // parallel component arc: must deduplicate
	g := b.Build()

	dag, comp, comps := Condensation(g)
	if len(comps) != 2 || dag.NumNodes() != 2 {
		t.Fatalf("condensation: %d comps, %d dag nodes", len(comps), dag.NumNodes())
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("component map wrong: %v", comp)
	}
	if dag.NumEdges() != 1 {
		t.Fatalf("dag edges = %d, want 1 (deduplicated)", dag.NumEdges())
	}
	if !dag.HasEdge(NodeID(comp[0]), NodeID(comp[2])) {
		t.Fatal("dag arc direction wrong")
	}
}

// Property: (1) components partition V; (2) dag arcs always point from a
// higher component index to a lower one (reverse topological emission);
// (3) mutual reachability within components on small graphs.
func TestSCCProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		b := NewBuilder(n, true)
		for i := 0; i < 40; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v, 1)
			}
		}
		g := b.Build()
		dag, comp, comps := Condensation(g)
		seen := map[NodeID]bool{}
		for _, c := range comps {
			for _, v := range c {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		if len(seen) != n {
			return false
		}
		for v := 0; v < dag.NumNodes(); v++ {
			for _, a := range dag.Out(NodeID(v)) {
				if a.To >= NodeID(v) {
					return false // must point to earlier (lower) component
				}
			}
		}
		// Mutual reachability within each multi-node component.
		reach := func(from, to NodeID) bool {
			for _, x := range BFSOrder(g, from, 0) {
				if x == to {
					return true
				}
			}
			return false
		}
		for _, c := range comps {
			if len(c) < 2 {
				continue
			}
			for i := 1; i < len(c); i++ {
				if !reach(c[0], c[i]) || !reach(c[i], c[0]) {
					return false
				}
			}
		}
		_ = comp
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCLargePathNoStackOverflow(t *testing.T) {
	// 200k-node path: the iterative implementation must handle it.
	n := 200_000
	b := NewBuilder(n, true)
	for i := 0; i < n-1; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	g := b.Build()
	comps := StronglyConnectedComponents(g)
	if len(comps) != n {
		t.Fatalf("got %d SCCs, want %d", len(comps), n)
	}
}
