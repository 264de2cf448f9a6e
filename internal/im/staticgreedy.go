package im

import (
	"container/heap"
	"math/rand"

	"privim/internal/bitset"
	"privim/internal/graph"
)

// StaticGreedy implements the snapshot approach to influence maximization
// (Cheng et al.'s StaticGreedy): sample R live-edge worlds once, compute
// exact reachability inside each world via SCC condensation, then run
// lazy greedy on the summed coverage. Because every candidate is evaluated
// against the *same* worlds (common random numbers), marginal-gain
// comparisons have far lower variance than re-simulating per evaluation —
// the estimator CELF uses.
//
// Memory is O(R·C·n/8) bits for the per-component reachability sets (C =
// number of SCCs per world), which is comfortable up to a few thousand
// nodes at R ≈ 100.
type StaticGreedy struct {
	G *graph.Graph
	// Worlds is R, the number of live-edge snapshots (default 100).
	Worlds int
	// MaxDepth bounds reachability depth within each world (0 =
	// unbounded); set it to the evaluation's step bound for step-limited
	// IC objectives. Bounded worlds skip the SCC machinery and BFS
	// directly.
	MaxDepth int
	Seed     int64
}

// Name identifies the solver for reporting.
func (s *StaticGreedy) Name() string { return "static-greedy" }

// world holds one snapshot's reachability structure.
type sgWorld struct {
	comp  []int32       // node -> component
	reach []*bitset.Set // component -> reachable node set
}

// buildWorld samples a live-edge subgraph and computes per-component
// reachability by DP over the condensation's reverse topological order,
// or per-node depth-bounded BFS when maxDepth > 0.
func buildWorld(g *graph.Graph, maxDepth int, rng *rand.Rand) sgWorld {
	n := g.NumNodes()
	b := graph.NewBuilder(n, true)
	for v := 0; v < n; v++ {
		for _, a := range g.Out(graph.NodeID(v)) {
			if rng.Float64() < a.Weight {
				b.AddEdge(graph.NodeID(v), a.To, 1)
			}
		}
	}
	live := b.Build()
	if maxDepth > 0 {
		// Depth-bounded: each node is its own "component" with a BFS-ball
		// reach set.
		comp := make([]int32, n)
		reach := make([]*bitset.Set, n)
		for v := 0; v < n; v++ {
			comp[v] = int32(v)
			r := bitset.New(n)
			for _, u := range graph.BFSOrderDepth(live, graph.NodeID(v), maxDepth) {
				r.Add(int(u))
			}
			reach[v] = r
		}
		return sgWorld{comp: comp, reach: reach}
	}
	dag, comp, comps := graph.Condensation(live)
	reach := make([]*bitset.Set, len(comps))
	// Components are emitted sinks-first and dag arcs point to lower
	// indices, so a single forward pass sees dependencies before
	// dependents.
	for ci := 0; ci < len(comps); ci++ {
		r := bitset.New(n)
		for _, v := range comps[ci] {
			r.Add(int(v))
		}
		for _, a := range dag.Out(graph.NodeID(ci)) {
			r.Or(reach[a.To])
		}
		reach[ci] = r
	}
	return sgWorld{comp: comp, reach: reach}
}

// Select returns k seed nodes with CELF-style lazy evaluation over the
// snapshot coverage function (which is exactly submodular, so laziness is
// lossless here).
func (s *StaticGreedy) Select(k int) []graph.NodeID {
	n := s.G.NumNodes()
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		return nil
	}
	worlds := s.Worlds
	if worlds < 1 {
		worlds = 100
	}
	rng := rand.New(rand.NewSource(s.Seed))
	ws := make([]sgWorld, worlds)
	for r := range ws {
		ws[r] = buildWorld(s.G, s.MaxDepth, rng)
	}
	covered := make([]*bitset.Set, worlds)
	for r := range covered {
		covered[r] = bitset.New(n)
	}
	coveredCount := make([]int, worlds)

	gain := func(v graph.NodeID) int {
		total := 0
		for r := range ws {
			w := &ws[r]
			total += covered[r].CountOrWith(w.reach[w.comp[v]]) - coveredCount[r]
		}
		return total
	}

	q := make(celfQueue, 0, n)
	for v := 0; v < n; v++ {
		q = append(q, &celfEntry{node: graph.NodeID(v), gain: float64(gain(graph.NodeID(v))), round: 0})
	}
	heap.Init(&q)

	seeds := make([]graph.NodeID, 0, k)
	for len(seeds) < k && q.Len() > 0 {
		top := heap.Pop(&q).(*celfEntry)
		if top.round != len(seeds) {
			top.gain = float64(gain(top.node))
			top.round = len(seeds)
			heap.Push(&q, top)
			continue
		}
		seeds = append(seeds, top.node)
		for r := range ws {
			w := &ws[r]
			covered[r].Or(w.reach[w.comp[top.node]])
			coveredCount[r] = covered[r].Count()
		}
	}
	return seeds
}

// ExpectedSpread returns the snapshot estimate of a seed set's spread:
// the mean covered count across freshly sampled worlds. Exposed so tests
// can compare against Monte Carlo simulation.
func (s *StaticGreedy) ExpectedSpread(seeds []graph.NodeID) float64 {
	worlds := s.Worlds
	if worlds < 1 {
		worlds = 100
	}
	rng := rand.New(rand.NewSource(s.Seed + 1))
	total := 0
	cover := bitset.New(s.G.NumNodes())
	for r := 0; r < worlds; r++ {
		w := buildWorld(s.G, s.MaxDepth, rng)
		cover.Clear()
		for _, v := range seeds {
			cover.Or(w.reach[w.comp[v]])
		}
		total += cover.Count()
	}
	return float64(total) / float64(worlds)
}
