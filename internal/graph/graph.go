// Package graph provides the directed weighted graph substrate used by the
// PrivIM framework: immutable CSR graphs assembled through a Builder, with
// influence-probability edge weights, θ-bounded in-degree projection,
// induced subgraphs, and structural statistics.
//
// Graphs are directed (Definition 1 / §II-A of the paper); undirected inputs
// are represented by storing both arc directions. Edge weights w(u,v) ∈ [0,1]
// are Independent Cascade influence probabilities.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node within a Graph. IDs are dense: a graph with n
// nodes uses IDs 0..n-1.
type NodeID = int32

// Edge is a directed arc u→v with influence probability Weight.
type Edge struct {
	From, To NodeID
	Weight   float64
}

// Graph is a frozen directed weighted graph in compressed sparse row form:
// one offset array plus one flat arc array per direction. Graphs come only
// from Builder.Build (or from the package's derivations of an existing
// graph, which build through a Builder too); once built, the structure
// never changes and every read method may be used concurrently.
// SetUniformWeights and SetWeightedCascade are the only mutators; they
// rewrite weights in place and must not race with readers.
type Graph struct {
	out, in  adjacency
	numEdges int
	directed bool
}

// adjacency is one direction of a graph: node u's arcs are
// arcs[off[u]:off[u+1]], in the order the Builder received them.
type adjacency struct {
	off  []int32
	arcs []Arc
}

// of returns u's arcs, capped at their end so an append by the caller
// cannot overwrite the next node's arcs.
func (a *adjacency) of(u NodeID) []Arc {
	lo, hi := a.off[u], a.off[u+1]
	return a.arcs[lo:hi:hi]
}

// Arc is one endpoint-weight pair in an adjacency list.
type Arc struct {
	To     NodeID
	Weight float64
}

// Builder accumulates nodes and edges for one Graph. It holds only a node
// count and an edge list, so it allocates nothing per node before Build.
type Builder struct {
	n        int
	directed bool
	edges    []Edge
}

// NewBuilder returns a builder for a graph with n isolated nodes. If
// directed is false, each AddEdge stores arcs in both directions (but the
// edge is counted once in NumEdges).
func NewBuilder(n int, directed bool) *Builder {
	if n < 0 || n > math.MaxInt32 {
		panic(fmt.Sprintf("graph: NewBuilder(%d) outside [0, 2^31)", n))
	}
	return &Builder{n: n, directed: directed}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return b.n }

// AddNode appends a new isolated node and returns its ID.
func (b *Builder) AddNode() NodeID {
	b.n++
	return NodeID(b.n - 1)
}

// AddEdge records the edge u→v with weight w (and v→u for undirected
// graphs). It panics if u or v is out of range or w is outside [0,1].
// Parallel edges and self loops are kept.
func (b *Builder) AddEdge(u, v NodeID, w float64) {
	if int(u) >= b.n || int(v) >= b.n || u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) out of range [0,%d)", u, v, b.n))
	}
	if w < 0 || w > 1 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: AddEdge weight %v outside [0,1]", w))
	}
	b.edges = append(b.edges, Edge{From: u, To: v, Weight: w})
}

// Build freezes the recorded nodes and edges into a Graph by a counting
// sort on each direction. Each node's out-arcs and in-arcs come out in
// AddEdge call order, an undirected edge u–v adding v to u's lists and
// then u to v's; that order fixes every per-arc RNG draw and every
// Fingerprint. The builder is left unchanged.
func (b *Builder) Build() *Graph {
	n := b.n
	undirected := !b.directed
	g := &Graph{numEdges: len(b.edges), directed: b.directed}
	offs := make([]int32, 2*(n+1))
	g.out.off, g.in.off = offs[:n+1:n+1], offs[n+1:]
	total := 0
	for _, e := range b.edges {
		g.out.off[e.From+1]++
		g.in.off[e.To+1]++
		total++
		if undirected && e.From != e.To {
			g.out.off[e.To+1]++
			g.in.off[e.From+1]++
			total++
		}
	}
	for v := 0; v < n; v++ {
		g.out.off[v+1] += g.out.off[v]
		g.in.off[v+1] += g.in.off[v]
	}
	arcs := make([]Arc, 2*total)
	g.out.arcs, g.in.arcs = arcs[:total:total], arcs[total:]
	// Fill with off[u] as u's cursor; afterwards off[u] holds u's end,
	// which is u+1's start, so one shift restores the offsets.
	for _, e := range b.edges {
		g.out.place(e.From, e.To, e.Weight)
		g.in.place(e.To, e.From, e.Weight)
		if undirected && e.From != e.To {
			g.out.place(e.To, e.From, e.Weight)
			g.in.place(e.From, e.To, e.Weight)
		}
	}
	g.out.unshift()
	g.in.unshift()
	return g
}

// place writes arc u→to at u's fill cursor and advances it.
func (a *adjacency) place(u, to NodeID, w float64) {
	a.arcs[a.off[u]] = Arc{To: to, Weight: w}
	a.off[u]++
}

// unshift turns the end offsets left by place back into start offsets.
func (a *adjacency) unshift() {
	n := len(a.off) - 1
	copy(a.off[1:], a.off[:n])
	a.off[0] = 0
}

// Directed reports whether the graph was constructed as directed.
func (g *Graph) Directed() bool { return g.directed }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.out.off) - 1 }

// NumEdges returns the number of logical edges: arcs for directed graphs,
// undirected edges (stored as two arcs) for undirected graphs.
func (g *Graph) NumEdges() int { return g.numEdges }

// HasEdge reports whether at least one arc u→v exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.Weight(u, v)
	return ok
}

// Weight returns the weight of the first arc u→v and whether it exists.
func (g *Graph) Weight(u, v NodeID) (float64, bool) {
	for _, a := range g.Out(u) {
		if a.To == v {
			return a.Weight, true
		}
	}
	return 0, false
}

// Out returns the arcs leaving u. The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) Out(u NodeID) []Arc { return g.out.of(u) }

// In returns the arcs entering v. The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) In(v NodeID) []Arc { return g.in.of(v) }

// OutDegree returns the number of arcs leaving u.
func (g *Graph) OutDegree(u NodeID) int { return int(g.out.off[u+1] - g.out.off[u]) }

// InDegree returns the number of arcs entering v.
func (g *Graph) InDegree(v NodeID) int { return int(g.in.off[v+1] - g.in.off[v]) }

// Edges returns all logical edges in deterministic order (sorted by source,
// then insertion order). For undirected graphs each edge is reported once,
// oriented from its lower endpoint.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.numEdges)
	for u := 0; u < g.NumNodes(); u++ {
		for _, a := range g.Out(NodeID(u)) {
			// Undirected: report the u<=v orientation once. Self loops
			// appear once by construction.
			if g.directed || NodeID(u) <= a.To {
				edges = append(edges, Edge{From: NodeID(u), To: a.To, Weight: a.Weight})
			}
		}
	}
	return edges
}

// SetUniformWeights overwrites every arc weight with w.
func (g *Graph) SetUniformWeights(w float64) {
	if w < 0 || w > 1 {
		panic("graph: SetUniformWeights outside [0,1]")
	}
	for i := range g.out.arcs {
		g.out.arcs[i].Weight = w
	}
	for i := range g.in.arcs {
		g.in.arcs[i].Weight = w
	}
}

// SetWeightedCascade assigns each arc u→v the weight 1/indegree(v), the
// standard Weighted Cascade parametrization of the IC model.
func (g *Graph) SetWeightedCascade() {
	for i := range g.out.arcs {
		g.out.arcs[i].Weight = 1 / float64(g.InDegree(g.out.arcs[i].To))
	}
	for v := 0; v < g.NumNodes(); v++ {
		w := 1 / float64(g.InDegree(NodeID(v)))
		for i := g.in.off[v]; i < g.in.off[v+1]; i++ {
			g.in.arcs[i].Weight = w
		}
	}
}

// Stats summarises a graph's structure (Table I columns).
type Stats struct {
	Nodes     int
	Edges     int
	Directed  bool
	AvgDegree float64 // mean out-degree for directed, mean degree for undirected
	MaxIn     int
	MaxOut    int
}

// ComputeStats returns structural statistics for g.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Directed: g.directed}
	if s.Nodes == 0 {
		return s
	}
	for u := 0; u < s.Nodes; u++ {
		s.MaxOut = max(s.MaxOut, g.OutDegree(NodeID(u)))
		s.MaxIn = max(s.MaxIn, g.InDegree(NodeID(u)))
	}
	s.AvgDegree = float64(len(g.out.arcs)) / float64(s.Nodes)
	return s
}

// String implements fmt.Stringer with a compact structural summary.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("graph(%s, |V|=%d, |E|=%d)", kind, g.NumNodes(), g.NumEdges())
}
