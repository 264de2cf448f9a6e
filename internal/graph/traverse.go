package graph

// BFSOrder returns nodes in breadth-first order from v0 following outgoing
// arcs, up to limit nodes (limit <= 0 means no limit).
func BFSOrder(g *Graph, v0 NodeID, limit int) []NodeID {
	seen := make([]bool, g.NumNodes())
	seen[v0] = true
	order := []NodeID{v0}
	for i := 0; i < len(order); i++ {
		if limit > 0 && len(order) >= limit {
			break
		}
		for _, a := range g.Out(order[i]) {
			if !seen[a.To] {
				seen[a.To] = true
				order = append(order, a.To)
				if limit > 0 && len(order) >= limit {
					break
				}
			}
		}
	}
	return order
}

// BFSOrderDepth returns nodes within maxDepth hops of v0 (following
// outgoing arcs), in breadth-first order including v0.
func BFSOrderDepth(g *Graph, v0 NodeID, maxDepth int) []NodeID {
	seen := make(map[NodeID]bool, 16)
	seen[v0] = true
	order := []NodeID{v0}
	frontier := []NodeID{v0}
	for d := 0; d < maxDepth && len(frontier) > 0; d++ {
		var next []NodeID
		for _, u := range frontier {
			for _, a := range g.Out(u) {
				if !seen[a.To] {
					seen[a.To] = true
					next = append(next, a.To)
					order = append(order, a.To)
				}
			}
		}
		frontier = next
	}
	return order
}

// WeaklyConnectedComponents returns the weakly connected components of g
// (treating arcs as undirected), largest first.
func WeaklyConnectedComponents(g *Graph) [][]NodeID {
	n := g.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]NodeID
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		comp[s] = id
		queue := []NodeID{NodeID(s)}
		var members []NodeID
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			members = append(members, u)
			for _, a := range g.Out(u) {
				if comp[a.To] < 0 {
					comp[a.To] = id
					queue = append(queue, a.To)
				}
			}
			for _, a := range g.In(u) {
				if comp[a.To] < 0 {
					comp[a.To] = id
					queue = append(queue, a.To)
				}
			}
		}
		comps = append(comps, members)
	}
	// Largest first (stable for determinism).
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}
