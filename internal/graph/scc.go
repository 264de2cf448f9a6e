package graph

// StronglyConnectedComponents returns the SCCs of g using an iterative
// Tarjan algorithm (recursion-free so million-node graphs don't blow the
// stack). Components are emitted in reverse topological order of the
// condensation: every arc between distinct components points from a
// later-emitted component to an earlier-emitted one, which is exactly the
// order reachability DP wants.
func StronglyConnectedComponents(g *Graph) [][]NodeID {
	n := g.NumNodes()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		counter int32
		stack   []NodeID // Tarjan stack
		comps   [][]NodeID
	)
	type frame struct {
		v    NodeID
		arcI int
	}
	var call []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{v: NodeID(root)})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, NodeID(root))
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			out := g.Out(v)
			advanced := false
			for f.arcI < len(out) {
				w := out[f.arcI].To
				f.arcI++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v finished: pop a component if v is a root.
			if low[v] == index[v] {
				var comp []NodeID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return comps
}

// Condensation contracts each SCC of g to a single node and returns the
// resulting DAG plus the mapping from original node to component index.
// Component indices follow StronglyConnectedComponents order (reverse
// topological), and parallel arcs between components are deduplicated.
func Condensation(g *Graph) (dag *Graph, comp []int32, comps [][]NodeID) {
	comps = StronglyConnectedComponents(g)
	comp = make([]int32, g.NumNodes())
	for ci, members := range comps {
		for _, v := range members {
			comp[v] = int32(ci)
		}
	}
	b := NewBuilder(len(comps), true)
	seen := make(map[int64]bool)
	for v := 0; v < g.NumNodes(); v++ {
		cv := comp[v]
		for _, a := range g.Out(NodeID(v)) {
			cw := comp[a.To]
			if cv == cw {
				continue
			}
			key := int64(cv)<<32 | int64(uint32(cw))
			if seen[key] {
				continue
			}
			seen[key] = true
			b.AddEdge(NodeID(cv), NodeID(cw), 1)
		}
	}
	return b.Build(), comp, comps
}
