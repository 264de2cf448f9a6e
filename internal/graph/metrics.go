package graph

import "sort"

// ClusteringCoefficient returns the average local clustering coefficient
// under the weak (undirected) view: for each node, the fraction of
// neighbor pairs that are themselves connected. Nodes with fewer than two
// neighbors contribute 0, matching the usual convention.
func ClusteringCoefficient(g *Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	// Weak neighbor sets.
	nbrs := make([]map[NodeID]bool, n)
	for v := 0; v < n; v++ {
		set := make(map[NodeID]bool)
		for _, a := range g.Out(NodeID(v)) {
			if a.To != NodeID(v) {
				set[a.To] = true
			}
		}
		for _, a := range g.In(NodeID(v)) {
			if a.To != NodeID(v) {
				set[a.To] = true
			}
		}
		nbrs[v] = set
	}
	total := 0.0
	for v := 0; v < n; v++ {
		set := nbrs[v]
		k := len(set)
		if k < 2 {
			continue
		}
		links := 0
		ids := make([]NodeID, 0, k)
		for u := range set {
			ids = append(ids, u)
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				if nbrs[ids[i]][ids[j]] {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(k*(k-1))
	}
	return total / float64(n)
}

// KCore returns each node's core number under the weak degree view: the
// largest k such that the node belongs to a subgraph where every node has
// weak degree ≥ k. Uses the standard linear-time peeling algorithm.
func KCore(g *Graph) []int {
	n := g.NumNodes()
	deg := make([]int, n)
	nbrs := make([][]NodeID, n)
	for v := 0; v < n; v++ {
		seen := make(map[NodeID]bool)
		for _, a := range g.Out(NodeID(v)) {
			if a.To != NodeID(v) && !seen[a.To] {
				seen[a.To] = true
				nbrs[v] = append(nbrs[v], a.To)
			}
		}
		for _, a := range g.In(NodeID(v)) {
			if a.To != NodeID(v) && !seen[a.To] {
				seen[a.To] = true
				nbrs[v] = append(nbrs[v], a.To)
			}
		}
		deg[v] = len(nbrs[v])
	}
	// Peel in nondecreasing degree order.
	order := make([]NodeID, n)
	for i := range order {
		order[i] = NodeID(i)
	}
	sort.Slice(order, func(a, b int) bool { return deg[order[a]] < deg[order[b]] })
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	core := make([]int, n)
	curDeg := append([]int(nil), deg...)
	removed := make([]bool, n)
	for i := 0; i < n; i++ {
		v := order[i]
		core[v] = curDeg[v]
		removed[v] = true
		for _, u := range nbrs[v] {
			if removed[u] || curDeg[u] <= curDeg[v] {
				continue
			}
			// Decrease u's degree and bubble it left to keep order sorted.
			curDeg[u]--
			j := pos[u]
			for j > i+1 && curDeg[order[j-1]] > curDeg[u] {
				order[j], order[j-1] = order[j-1], order[j]
				pos[order[j]] = j
				j--
			}
			order[j] = u
			pos[u] = j
		}
	}
	// Core numbers are monotone along the peel: enforce the running max so
	// ties processed out of order can't understate a core.
	maxSoFar := 0
	for i := 0; i < n; i++ {
		v := order[i]
		if core[v] > maxSoFar {
			maxSoFar = core[v]
		} else {
			core[v] = maxSoFar
		}
	}
	return core
}
