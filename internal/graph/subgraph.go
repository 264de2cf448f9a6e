package graph

import "sort"

// Subgraph is a node-induced subgraph of a parent graph, with its own dense
// node IDs 0..n-1 and a mapping back to parent IDs. Subgraphs are the unit of
// DP-SGD per-sample processing in Algorithm 2.
type Subgraph struct {
	// G is the induced graph with local IDs.
	G *Graph
	// Orig maps local ID -> parent ID.
	Orig []NodeID
}

// Induce returns the subgraph of g induced by the given parent node IDs.
// Duplicate IDs are ignored; local IDs follow the order of first appearance
// in nodes (so the starting node of a random walk keeps local ID 0).
func Induce(g *Graph, nodes []NodeID) *Subgraph {
	local := make(map[NodeID]NodeID, len(nodes))
	orig := make([]NodeID, 0, len(nodes))
	for _, v := range nodes {
		if _, ok := local[v]; ok {
			continue
		}
		local[v] = NodeID(len(orig))
		orig = append(orig, v)
	}
	// Count the induced arcs first so the builder's edge list is
	// allocated once at its exact size (extraction builds thousands of
	// these subgraphs per training run).
	total := 0
	for _, pu := range orig {
		for _, a := range g.Out(pu) {
			if _, ok := local[a.To]; ok {
				total++
			}
		}
	}
	b := NewBuilder(len(orig), true)
	b.edges = make([]Edge, 0, total)
	for lu, pu := range orig {
		for _, a := range g.Out(pu) {
			if lv, ok := local[a.To]; ok {
				b.AddEdge(NodeID(lu), lv, a.Weight)
			}
		}
	}
	return &Subgraph{G: b.Build(), Orig: orig}
}

// Contains reports whether parent node v is part of the subgraph.
func (s *Subgraph) Contains(v NodeID) bool {
	for _, o := range s.Orig {
		if o == v {
			return true
		}
	}
	return false
}

// RemoveNodes returns a copy of g with the given nodes (and all incident
// arcs) removed, along with the mapping from new IDs to old IDs. Used by
// Boundary-Enhanced Sampling to build G_re = (V_re, E_re) after dropping
// nodes that reached the frequency threshold M.
func RemoveNodes(g *Graph, drop map[NodeID]bool) (*Graph, []NodeID) {
	keep := make([]NodeID, 0, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		if !drop[NodeID(v)] {
			keep = append(keep, NodeID(v))
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	newID := make([]NodeID, g.NumNodes())
	for i := range newID {
		newID[i] = -1
	}
	for i, v := range keep {
		newID[v] = NodeID(i)
	}
	b := NewBuilder(len(keep), true)
	for _, u := range keep {
		for _, a := range g.Out(u) {
			if nv := newID[a.To]; nv >= 0 {
				b.AddEdge(newID[u], nv, a.Weight)
			}
		}
	}
	return b.Build(), keep
}
