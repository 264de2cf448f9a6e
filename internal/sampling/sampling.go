// Package sampling implements the subgraph-extraction schemes at the heart
// of PrivIM: Algorithm 1 (random walk with restart on a θ-bounded
// projection) for the naive pipeline, and Algorithm 3's dual-stage adaptive
// frequency sampling (Sensitivity-Constrained Sampling followed by
// Boundary-Enhanced Sampling) for PrivIM*. Both produce a Container of
// fixed-size subgraphs that serves as the DP-SGD sampling pool.
//
// Walks treat the graph as weakly connected (neighbors = in ∪ out), which
// matches the paper's setting where undirected social graphs are stored as
// arc pairs; induced subgraphs keep the original arc directions and
// influence weights.
package sampling

import (
	"fmt"
	"math"
	"math/rand"

	"privim/internal/graph"
	"privim/internal/obs"
)

// Container is the pool of extracted subgraphs used for mini-batch
// sampling in Algorithm 2.
type Container struct {
	Subgraphs []*graph.Subgraph
	// Occurrences[v] counts how many subgraphs contain original node v.
	Occurrences []int
}

// NewContainer allocates an empty container for an n-node parent graph.
// Exposed so baseline methods with their own extraction strategies (EGN's
// BFS balls, HP's ego networks) can share the occurrence auditing.
func NewContainer(n int) *Container {
	return &Container{Occurrences: make([]int, n)}
}

// Add appends a subgraph and updates the occurrence audit.
func (c *Container) Add(s *graph.Subgraph) {
	c.Subgraphs = append(c.Subgraphs, s)
	for _, v := range s.Orig {
		c.Occurrences[v]++
	}
}

// fits reports whether adding nodes keeps each in at most limit subgraphs.
func (c *Container) fits(nodes []graph.NodeID, limit int) bool {
	for _, v := range nodes {
		if c.Occurrences[v] >= limit {
			return false
		}
	}
	return true
}

// Len returns the number of subgraphs (m in Theorem 3).
func (c *Container) Len() int { return len(c.Subgraphs) }

// MaxOccurrence returns the audited maximum number of subgraphs any single
// node appears in — the empirical counterpart of Lemma 1's N_g bound and
// the exact value N_g* = M for the dual-stage scheme.
func (c *Container) MaxOccurrence() int {
	best := 0
	for _, o := range c.Occurrences {
		if o > best {
			best = o
		}
	}
	return best
}

// weakNeighbors lists each node's neighbors under the weak (undirected)
// view, deduplicated, computed once per extraction. All lists share one
// flat backing array, and dedup uses a per-node epoch stamp instead of a
// per-node map, so the whole table costs three allocations.
func weakNeighbors(g *graph.Graph) [][]graph.NodeID {
	n := g.NumNodes()
	out := make([][]graph.NodeID, n)
	total := 0
	for v := 0; v < n; v++ {
		total += len(g.Out(graph.NodeID(v))) + len(g.In(graph.NodeID(v)))
	}
	backing := make([]graph.NodeID, 0, total)
	seen := make([]int32, n) // seen[u] == v+1 ⇔ u already listed for v
	for v := 0; v < n; v++ {
		epoch := int32(v + 1)
		start := len(backing)
		for _, a := range g.Out(graph.NodeID(v)) {
			if a.To != graph.NodeID(v) && seen[a.To] != epoch {
				seen[a.To] = epoch
				backing = append(backing, a.To)
			}
		}
		for _, a := range g.In(graph.NodeID(v)) {
			if a.To != graph.NodeID(v) && seen[a.To] != epoch {
				seen[a.To] = epoch
				backing = append(backing, a.To)
			}
		}
		out[v] = backing[start:len(backing):len(backing)]
	}
	return out
}

// maxDegree is the longest list in nbrs: the size of the walkers'
// per-step scratch buffers.
func maxDegree(nbrs [][]graph.NodeID) int {
	d := 0
	for _, l := range nbrs {
		d = max(d, len(l))
	}
	return d
}

// weakRHop returns the weak r-hop neighborhood membership of v0.
func weakRHop(nbrs [][]graph.NodeID, v0 graph.NodeID, r int) map[graph.NodeID]bool {
	seen := map[graph.NodeID]bool{v0: true}
	frontier := []graph.NodeID{v0}
	for hop := 0; hop < r && len(frontier) > 0; hop++ {
		var next []graph.NodeID
		for _, u := range frontier {
			for _, w := range nbrs[u] {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return seen
}

// RWRConfig parameterizes Algorithm 1.
type RWRConfig struct {
	// SubgraphSize is n, the exact node count of each extracted subgraph.
	SubgraphSize int
	// Theta bounds node in-degree before extraction (the θ projection).
	Theta int
	// Tau is the restart probability τ (paper default 0.3).
	Tau float64
	// SamplingRate is q, the probability each node starts a walk
	// (paper: 256/|V_train|).
	SamplingRate float64
	// WalkLength is L, the step budget per walk (paper default 200).
	WalkLength int
	// Hops is r, the hop bound that keeps walks near the start node; it
	// matches the GNN depth.
	Hops int

	// Obs, when non-nil, receives an ExtractionDone event summarizing the
	// pass (walk-length and occurrence histograms); nil costs nothing.
	Obs obs.Observer
}

func (c *RWRConfig) validate(n int) error {
	switch {
	case c.SubgraphSize < 2 || c.SubgraphSize > n:
		return fmt.Errorf("sampling: subgraph size %d outside [2, |V|=%d]", c.SubgraphSize, n)
	case c.Theta < 1:
		return fmt.Errorf("sampling: theta %d < 1", c.Theta)
	case c.Tau < 0 || c.Tau >= 1:
		return fmt.Errorf("sampling: tau %v outside [0, 1)", c.Tau)
	case c.SamplingRate <= 0 || c.SamplingRate > 1:
		return fmt.Errorf("sampling: sampling rate %v outside (0, 1]", c.SamplingRate)
	case c.WalkLength < 1:
		return fmt.Errorf("sampling: walk length %d < 1", c.WalkLength)
	case c.Hops < 1:
		return fmt.Errorf("sampling: hops %d < 1", c.Hops)
	}
	return nil
}

// extractionStats accumulates the per-stage telemetry behind an
// ExtractionDone event; a nil *extractionStats (unobserved run) is a
// valid no-op receiver, so the walk loops stay branch-cheap.
type extractionStats struct {
	stage    string
	walks    int
	walkLens [obs.NumBuckets]uint64
}

// newExtractionStats returns nil when o is nil so all recording no-ops.
func newExtractionStats(o obs.Observer, stage string) *extractionStats {
	if o == nil {
		return nil
	}
	return &extractionStats{stage: stage}
}

// walk records one random walk that consumed the given number of steps.
func (st *extractionStats) walk(steps int) {
	if st == nil {
		return
	}
	st.walks++
	st.walkLens[obs.BucketIndex(float64(steps))]++
}

// emit sends the stage summary. subgraphs counts this stage's output;
// occ is the per-node occurrence audit (cumulative through this stage).
func (st *extractionStats) emit(o obs.Observer, subgraphs int, occ []int) {
	if st == nil {
		return
	}
	ev := obs.ExtractionDone{
		Stage:          st.stage,
		Subgraphs:      subgraphs,
		Walks:          st.walks,
		WalkLenBuckets: st.walkLens,
	}
	for _, c := range occ {
		if c > 0 {
			ev.OccurrenceBuckets[obs.BucketIndex(float64(c))]++
		}
		if c > ev.MaxOccurrence {
			ev.MaxOccurrence = c
		}
	}
	obs.Emit(o, ev)
}

// ExtractRWR runs Algorithm 1: project g to the θ-bounded graph, then for
// each node (selected with rate q) random-walk-with-restart within its
// r-hop neighborhood until n unique nodes are collected (or the L-step
// budget runs out, in which case no subgraph is emitted for that start).
func ExtractRWR(g *graph.Graph, cfg RWRConfig, rng *rand.Rand) (*Container, *graph.Graph, error) {
	if err := cfg.validate(g.NumNodes()); err != nil {
		return nil, nil, err
	}
	proj := graph.ProjectInDegree(g, cfg.Theta, rng)
	nbrs := weakNeighbors(proj)
	container := NewContainer(g.NumNodes())
	stats := newExtractionStats(cfg.Obs, "rwr")
	// Lemma 1's N_g counts starts reaching a node over θ-bounded in-arcs,
	// but the walk roams the weak neighborhood, whose out-arcs are
	// unbounded: a subgraph that would put a node past N_g is dropped.
	ng := graph.MaxOccurrence(cfg.Theta, cfg.Hops)
	eligible := make([]graph.NodeID, maxDegree(nbrs))

	for v := 0; v < proj.NumNodes(); v++ {
		if rng.Float64() >= cfg.SamplingRate {
			continue
		}
		v0 := graph.NodeID(v)
		hood := weakRHop(nbrs, v0, cfg.Hops)
		collected := map[graph.NodeID]bool{v0: true}
		order := []graph.NodeID{v0}
		cur := v0
		steps := 0
		for ; steps < cfg.WalkLength && len(order) < cfg.SubgraphSize; steps++ {
			if rng.Float64() < cfg.Tau {
				cur = v0
			}
			next, ok := sampleUniform(nbrs[cur], hood, eligible, rng)
			if !ok {
				// Dead end within the neighborhood: restart.
				cur = v0
				continue
			}
			cur = next
			if !collected[next] {
				collected[next] = true
				order = append(order, next)
			}
		}
		stats.walk(steps)
		if len(order) == cfg.SubgraphSize && container.fits(order, ng) {
			container.Add(graph.Induce(proj, order))
		}
	}
	stats.emit(cfg.Obs, container.Len(), container.Occurrences)
	return container, proj, nil
}

// sampleUniform picks a uniform member of cands inside hood. eligible is
// a caller-owned scratch buffer with cap ≥ len(cands), overwritten here.
func sampleUniform(cands []graph.NodeID, hood map[graph.NodeID]bool, eligible []graph.NodeID, rng *rand.Rand) (graph.NodeID, bool) {
	eligible = eligible[:0]
	for _, c := range cands {
		if hood[c] {
			eligible = append(eligible, c)
		}
	}
	if len(eligible) == 0 {
		return 0, false
	}
	return eligible[rng.Intn(len(eligible))], true
}

// FreqConfig parameterizes Algorithm 3 (both stages).
type FreqConfig struct {
	// SubgraphSize is n for stage 1; stage 2 uses n/BESDivisor.
	SubgraphSize int
	// Tau is the restart probability τ.
	Tau float64
	// Mu is the decay factor µ in Eq. 9 controlling how strongly sampling
	// probability decays with frequency.
	Mu float64
	// SamplingRate is q.
	SamplingRate float64
	// WalkLength is L.
	WalkLength int
	// Threshold is M, the hard cap on any node's subgraph occurrences —
	// this becomes N_g* in the privacy accounting.
	Threshold int
	// BESDivisor is s: stage 2 extracts subgraphs of size n/s from the
	// boundary regions. Zero disables stage 2 (SCS only).
	BESDivisor int

	// Obs, when non-nil, receives one ExtractionDone event per stage
	// ("scs", then "bes" if it runs); nil costs nothing.
	Obs obs.Observer
}

func (c *FreqConfig) validate(n int) error {
	switch {
	case c.SubgraphSize < 2 || c.SubgraphSize > n:
		return fmt.Errorf("sampling: subgraph size %d outside [2, |V|=%d]", c.SubgraphSize, n)
	case c.Tau < 0 || c.Tau >= 1:
		return fmt.Errorf("sampling: tau %v outside [0, 1)", c.Tau)
	case c.Mu <= 0:
		return fmt.Errorf("sampling: decay mu %v <= 0", c.Mu)
	case c.SamplingRate <= 0 || c.SamplingRate > 1:
		return fmt.Errorf("sampling: sampling rate %v outside (0, 1]", c.SamplingRate)
	case c.WalkLength < 1:
		return fmt.Errorf("sampling: walk length %d < 1", c.WalkLength)
	case c.Threshold < 1:
		return fmt.Errorf("sampling: threshold M %d < 1", c.Threshold)
	case c.BESDivisor < 0:
		return fmt.Errorf("sampling: BES divisor %d < 0", c.BESDivisor)
	}
	return nil
}

// ExtractDualStage runs Algorithm 3 on g: Sensitivity-Constrained Sampling
// over the whole graph, then Boundary-Enhanced Sampling over the nodes that
// never reached the frequency threshold. The returned container's
// MaxOccurrence is guaranteed ≤ Threshold (the exact invariant behind
// PrivIM*'s privacy accounting with N_g* = M).
func ExtractDualStage(g *graph.Graph, cfg FreqConfig, rng *rand.Rand) (*Container, error) {
	if err := cfg.validate(g.NumNodes()); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	freq := make([]int, n)
	container := NewContainer(n)

	// Stage 1: SCS over the full graph.
	nbrs := weakNeighbors(g)
	scsStats := newExtractionStats(cfg.Obs, "scs")
	freqSampling(g, nbrs, freq, cfg, cfg.SubgraphSize, container, rng, scsStats)
	scsStats.emit(cfg.Obs, container.Len(), container.Occurrences)

	if cfg.BESDivisor == 0 {
		return container, nil
	}

	// Stage 2: BES over the boundary graph G_re (nodes below threshold).
	drop := make(map[graph.NodeID]bool)
	for v := 0; v < n; v++ {
		if freq[v] >= cfg.Threshold {
			drop[graph.NodeID(v)] = true
		}
	}
	gre, keep := graph.RemoveNodes(g, drop)
	besSize := cfg.SubgraphSize / cfg.BESDivisor
	if besSize < 2 || gre.NumNodes() < besSize {
		return container, nil // boundary too small to supplement
	}
	// f* is freq remapped onto G_re's IDs; walking G_re but accounting
	// against the global frequency vector keeps the M invariant exact.
	freqRe := make([]int, gre.NumNodes())
	for i, orig := range keep {
		freqRe[i] = freq[orig]
	}
	nbrsRe := weakNeighbors(gre)
	stage2 := NewContainer(gre.NumNodes())
	besStats := newExtractionStats(cfg.Obs, "bes")
	freqSampling(gre, nbrsRe, freqRe, cfg, besSize, stage2, rng, besStats)
	// Translate stage-2 subgraphs back to original node IDs.
	for _, s := range stage2.Subgraphs {
		orig := make([]graph.NodeID, len(s.Orig))
		for i, local := range s.Orig {
			orig[i] = keep[local]
		}
		container.Add(&graph.Subgraph{G: s.G, Orig: orig})
	}
	// The occurrence audit is cumulative: stage 2's additions count
	// against the same global M invariant.
	besStats.emit(cfg.Obs, stage2.Len(), container.Occurrences)
	return container, nil
}

// freqSampling is the FreqSampling function of Algorithm 3: frequency-aware
// RWR extraction updating freq in place. size is the target subgraph size;
// stats (nil-safe) records walk telemetry.
func freqSampling(g *graph.Graph, nbrs [][]graph.NodeID, freq []int, cfg FreqConfig, size int, container *Container, rng *rand.Rand, stats *extractionStats) {
	// Walk state reused across starts: seen is an epoch-stamped membership
	// set (seen[u] == v+1 ⇔ u collected during the walk started at v),
	// order is the collection buffer (Induce copies it into the subgraph,
	// so clobbering it on the next walk is safe), and weights is the Eq. 9
	// buffer sized for the maximum weak degree.
	seen := make([]int32, g.NumNodes())
	order := make([]graph.NodeID, 0, size)
	weights := make([]float64, maxDegree(nbrs))
	for v := 0; v < g.NumNodes(); v++ {
		if rng.Float64() >= cfg.SamplingRate || freq[v] >= cfg.Threshold {
			continue
		}
		v0 := graph.NodeID(v)
		epoch := int32(v + 1)
		seen[v0] = epoch
		order = append(order[:0], v0)
		cur := v0
		steps := 0
		for ; steps < cfg.WalkLength && len(order) < size; steps++ {
			if rng.Float64() < cfg.Tau {
				cur = v0
			}
			next, ok := sampleByFrequency(nbrs[cur], freq, cfg, weights, rng)
			if !ok {
				cur = v0
				continue
			}
			cur = next
			if seen[next] != epoch {
				seen[next] = epoch
				order = append(order, next)
			}
		}
		stats.walk(steps)
		if len(order) != size {
			continue
		}
		container.Add(graph.Induce(g, order))
		for _, u := range order {
			freq[u]++
		}
	}
}

// sampleByFrequency implements Eq. 9: neighbor v is drawn with probability
// proportional to e_v = 1/(f_v+1)^µ, with e_v = 0 once f_v ≥ M. weights is
// a caller-owned scratch buffer with cap ≥ len(cands); its leading entries
// are zeroed here, so reuse across calls is safe.
func sampleByFrequency(cands []graph.NodeID, freq []int, cfg FreqConfig, weights []float64, rng *rand.Rand) (graph.NodeID, bool) {
	total := 0.0
	weights = weights[:len(cands)]
	for i := range weights {
		weights[i] = 0
	}
	for i, c := range cands {
		if freq[c] >= cfg.Threshold {
			continue
		}
		w := math.Pow(float64(freq[c]+1), -cfg.Mu)
		weights[i] = w
		total += w
	}
	if total == 0 {
		return 0, false
	}
	r := rng.Float64() * total
	for i, w := range weights {
		if w == 0 {
			continue
		}
		r -= w
		if r <= 0 {
			return cands[i], true
		}
	}
	// Floating-point slack: return the last eligible candidate.
	for i := len(cands) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return cands[i], true
		}
	}
	return 0, false
}
