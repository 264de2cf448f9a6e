package graph

import "math/rand"

// ProjectInDegree returns the θ-bounded projection G^θ of g (§III-B): for
// every node whose in-degree exceeds theta, incoming arcs are removed
// uniformly at random until exactly theta remain. Out-degrees are only
// affected indirectly. The projection is the first step of the naive PrivIM
// pipeline and bounds per-node influence for the sensitivity analysis
// (Lemma 1).
//
// The result is always a directed graph: the paper treats undirected graphs
// as directed (each undirected edge contributes two arcs) and projection can
// break the symmetry between the two arc directions.
func ProjectInDegree(g *Graph, theta int, rng *rand.Rand) *Graph {
	if theta < 1 {
		panic("graph: ProjectInDegree requires theta >= 1")
	}
	n := g.NumNodes()
	p := NewBuilder(n, true)
	// For each target node v choose up to theta incoming arcs.
	for v := 0; v < n; v++ {
		in := g.In(NodeID(v))
		if len(in) <= theta {
			for _, a := range in {
				p.AddEdge(a.To, NodeID(v), a.Weight)
			}
			continue
		}
		// Reservoir-free selection: shuffle a copy of the index set and take
		// the first theta entries.
		idx := rng.Perm(len(in))[:theta]
		for _, i := range idx {
			p.AddEdge(in[i].To, NodeID(v), in[i].Weight)
		}
	}
	return p.Build()
}

// MaxOccurrence returns N_g from Lemma 1: the worst-case number of times a
// single node can occur across the subgraphs extracted by Algorithm 1 on a
// θ-bounded graph with an r-layer GNN, N_g = Σ_{i=0}^{r} θ^i.
// It saturates at maxInt to avoid overflow for large θ^r.
func MaxOccurrence(theta, r int) int {
	if theta < 1 || r < 0 {
		panic("graph: MaxOccurrence requires theta >= 1, r >= 0")
	}
	if theta == 1 {
		return r + 1
	}
	const maxInt = int(^uint(0) >> 1)
	total, pow := 0, 1
	for i := 0; i <= r; i++ {
		if total > maxInt-pow {
			return maxInt
		}
		total += pow
		if i < r && pow > maxInt/theta {
			return maxInt
		}
		if i < r {
			pow *= theta
		}
	}
	return total
}
