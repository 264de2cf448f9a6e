// Package dataset generates the synthetic social-network workloads used by
// the benchmark harness. The paper evaluates on SNAP datasets (Table I);
// those downloads are unavailable in this offline build, so each dataset is
// substituted by a generative model matched on the statistics the paper
// reports: node count, directedness, and average degree. Power-law degree
// distributions (preferential attachment) stand in for the social and
// citation networks; small-world rewiring stands in for the geographically
// clustered ones. See DESIGN.md §2 for the substitution rationale.
package dataset

import (
	"fmt"
	"math/rand"
	"slices"

	"privim/internal/graph"
)

// BarabasiAlbert generates a preferential-attachment graph with n nodes
// where each new node attaches m edges to existing nodes with probability
// proportional to degree. Produces the heavy-tailed degree distributions
// characteristic of social networks. The result is undirected.
func BarabasiAlbert(n, m int, rng *rand.Rand) *graph.Graph {
	if m < 1 || n < m+1 {
		panic(fmt.Sprintf("dataset: BarabasiAlbert(n=%d, m=%d) requires n > m >= 1", n, m))
	}
	b := graph.NewBuilder(n, false)
	// repeated holds node IDs once per incident edge endpoint, so sampling
	// uniformly from it implements preferential attachment.
	repeated := make([]graph.NodeID, 0, 2*m*n)
	// Seed clique over the first m+1 nodes.
	for u := 0; u <= m; u++ {
		for v := u + 1; v <= m; v++ {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), 1)
			repeated = append(repeated, graph.NodeID(u), graph.NodeID(v))
		}
	}
	// Each node's m distinct targets are attached in draw order, so the
	// graph is a function of the seed alone.
	targets := make([]graph.NodeID, 0, m)
	for u := m + 1; u < n; u++ {
		targets = targets[:0]
		for len(targets) < m {
			if v := repeated[rng.Intn(len(repeated))]; !slices.Contains(targets, v) {
				targets = append(targets, v)
			}
		}
		for _, v := range targets {
			b.AddEdge(graph.NodeID(u), v, 1)
			repeated = append(repeated, graph.NodeID(u), v)
		}
	}
	return b.Build()
}

// WattsStrogatz generates a small-world graph: a ring lattice over n nodes
// where each node connects to its k nearest neighbors (k even), with each
// edge rewired with probability beta. The result is undirected.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) *graph.Graph {
	if k < 2 || k%2 != 0 || k >= n {
		panic(fmt.Sprintf("dataset: WattsStrogatz(n=%d, k=%d) requires even k in [2, n)", n, k))
	}
	if beta < 0 || beta > 1 {
		panic("dataset: WattsStrogatz beta outside [0,1]")
	}
	type key struct{ a, b graph.NodeID }
	norm := func(a, b graph.NodeID) key {
		if a > b {
			a, b = b, a
		}
		return key{a, b}
	}
	// lattice lists the edges in lattice order, a rewired edge taking its
	// original's slot, so the graph is a function of the seed alone;
	// edges is the membership set.
	lattice := make([]key, 0, n*k/2)
	edges := make(map[key]bool, n*k/2)
	for u := 0; u < n; u++ {
		for d := 1; d <= k/2; d++ {
			e := norm(graph.NodeID(u), graph.NodeID((u+d)%n))
			lattice = append(lattice, e)
			edges[e] = true
		}
	}
	// Rewire: each lattice edge (u, u+d) has its far endpoint replaced with
	// probability beta by a uniform non-duplicate target.
	for i, e := range lattice {
		u := graph.NodeID(i / (k / 2))
		if !edges[e] || rng.Float64() >= beta {
			continue
		}
		// Try a few times to find a fresh endpoint; keep original on failure.
		for try := 0; try < 16; try++ {
			w := graph.NodeID(rng.Intn(n))
			if w == u || edges[norm(u, w)] {
				continue
			}
			delete(edges, e)
			lattice[i] = norm(u, w)
			edges[lattice[i]] = true
			break
		}
	}
	b := graph.NewBuilder(n, false)
	for _, e := range lattice {
		b.AddEdge(e.a, e.b, 1)
	}
	return b.Build()
}

// ScaleFreeDirected generates a directed power-law graph with n nodes and
// roughly avgOut outgoing arcs per node; in-degree follows preferential
// attachment so a few hub nodes accumulate many incoming arcs. Used for the
// directed presets (Email, Bitcoin).
func ScaleFreeDirected(n, avgOut int, rng *rand.Rand) *graph.Graph {
	if avgOut < 1 || n < 2 {
		panic("dataset: ScaleFreeDirected requires n >= 2, avgOut >= 1")
	}
	b := graph.NewBuilder(n, true)
	// in-degree attractiveness: one phantom unit per node so early nodes
	// don't monopolize all attachment.
	repeated := make([]graph.NodeID, 0, n*(avgOut+1))
	for v := 0; v < n; v++ {
		repeated = append(repeated, graph.NodeID(v))
	}
	for u := 0; u < n; u++ {
		// Geometric-ish spread around avgOut keeps total edges ≈ n*avgOut.
		deg := avgOut
		if avgOut > 1 {
			deg = 1 + rng.Intn(2*avgOut-1)
		}
		used := make(map[graph.NodeID]bool, deg)
		for len(used) < deg {
			v := repeated[rng.Intn(len(repeated))]
			if v == graph.NodeID(u) || used[v] {
				// Accept some failed draws to avoid stalling on tiny graphs.
				if len(used) >= n-1 {
					break
				}
				continue
			}
			used[v] = true
			b.AddEdge(graph.NodeID(u), v, 1)
			repeated = append(repeated, v)
		}
	}
	return b.Build()
}
