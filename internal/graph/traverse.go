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
