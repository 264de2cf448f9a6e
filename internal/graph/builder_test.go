package graph

import (
	"math"
	"math/rand"
	"testing"
)

// adjLists is the reference layout Build must reproduce: one appended
// slice per node and direction, an undirected edge u–v appending v to
// u's lists and then u to v's.
type adjLists struct {
	out, in  [][]Arc
	directed bool
}

func (r *adjLists) addEdge(u, v NodeID, w float64) {
	r.out[u] = append(r.out[u], Arc{To: v, Weight: w})
	r.in[v] = append(r.in[v], Arc{To: u, Weight: w})
	if !r.directed && u != v {
		r.out[v] = append(r.out[v], Arc{To: u, Weight: w})
		r.in[u] = append(r.in[u], Arc{To: v, Weight: w})
	}
}

// fingerprint hashes the reference the way Graph.Fingerprint does.
func (r *adjLists) fingerprint() uint64 {
	h := fnvMix(fnvOffset64, 0)
	if r.directed {
		h = fnvMix(fnvOffset64, 1)
	}
	h = fnvMix(h, uint64(len(r.out)))
	for u, arcs := range r.out {
		for _, a := range arcs {
			h = fnvMix(h, uint64(uint32(u)))
			h = fnvMix(h, uint64(uint32(a.To)))
			h = fnvMix(h, math.Float64bits(a.Weight))
		}
	}
	return h
}

func sameArcs(a, b []Arc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBuildMatchesAdjacencyLists checks that Build lays out every node's
// out- and in-arcs in the order per-node appends would, on random
// directed and undirected multigraphs with self loops and parallel arcs,
// including nodes added after edges.
func TestBuildMatchesAdjacencyLists(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		ref := &adjLists{out: make([][]Arc, n), in: make([][]Arc, n), directed: seed%2 == 0}
		b := NewBuilder(n, ref.directed)
		for i, m := 0, rng.Intn(40); i < m; i++ {
			if rng.Intn(8) == 0 {
				b.AddNode()
				ref.out, ref.in = append(ref.out, nil), append(ref.in, nil)
			}
			u := NodeID(rng.Intn(b.NumNodes()))
			v := u // self loop
			if rng.Intn(4) != 0 {
				v = NodeID(rng.Intn(b.NumNodes()))
			}
			w := float64(rng.Intn(5)) / 4
			b.AddEdge(u, v, w)
			ref.addEdge(u, v, w)
			if rng.Intn(6) == 0 { // parallel arc
				b.AddEdge(u, v, w/2)
				ref.addEdge(u, v, w/2)
			}
		}
		g := b.Build()
		if g.NumNodes() != len(ref.out) || g.Directed() != ref.directed {
			t.Fatalf("seed %d: built %v, want %d nodes directed=%v", seed, g, len(ref.out), ref.directed)
		}
		for u := range ref.out {
			if got := g.Out(NodeID(u)); !sameArcs(got, ref.out[u]) {
				t.Fatalf("seed %d: Out(%d) = %v, want %v", seed, u, got, ref.out[u])
			}
			if got := g.In(NodeID(u)); !sameArcs(got, ref.in[u]) {
				t.Fatalf("seed %d: In(%d) = %v, want %v", seed, u, got, ref.in[u])
			}
		}
		if got, want := g.Fingerprint(), ref.fingerprint(); got != want {
			t.Fatalf("seed %d: Fingerprint %x, want %x", seed, got, want)
		}
	}
}

// TestOutIsCapped checks that appending to one node's arcs cannot
// overwrite the next node's.
func TestOutIsCapped(t *testing.T) {
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 0, 0.25)
	g := b.Build()
	_ = append(g.Out(0), Arc{To: 0, Weight: 1})
	_ = append(g.In(0), Arc{To: 0, Weight: 1})
	if w, _ := g.Weight(1, 0); w != 0.25 || g.In(1)[0] != (Arc{To: 0, Weight: 0.5}) {
		t.Fatalf("append through Out/In overwrote a neighbour: %v %v", g.Out(1), g.In(1))
	}
}
