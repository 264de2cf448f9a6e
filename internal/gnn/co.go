package gnn

import (
	"fmt"

	"privim/internal/autodiff"
	"privim/internal/graph"
)

// This file implements the paper's §VI-C remark that the PrivIM framework
// extends to other coverage-type combinatorial optimization problems:
// probabilistic penalty losses for maximum coverage and maximum cut, built
// from the same differentiable machinery as the IM loss.

// MaxCoverLoss builds the Erdős-style penalty loss for the maximum
// coverage problem: choose ≤ k nodes so that as many nodes as possible are
// covered (a node is covered if it or one of its in-neighbors is chosen).
//
//	L = Σ_u Π_{v ∈ N(u) ∪ {u}} (1 − x_v) + β·relu(Σ_v x_v − k)
//
// The product is computed stably as exp(Σ log(1−x_v)) via a sparse
// aggregation of logs. The cardinality term is a linear Lagrangian
// penalty: its per-node gradient is β, so any node covering more than β
// otherwise-uncovered nodes keeps net-positive pressure — a quadratic
// penalty instead crushes every score into sigmoid saturation before the
// coverage term can act.
func MaxCoverLoss(tp *autodiff.Tape, g *graph.Graph, scores *autodiff.Node, k int, beta float64) *autodiff.Node {
	return MaxCoverLossCover(tp, g, scores, k, beta, CoverMatrix(g))
}

// CoverMatrix builds the binary coverage operator MaxCoverLoss aggregates
// with: row u selects u and its (deduplicated) in-neighbors. Precompute it
// once per subgraph when the loss is evaluated repeatedly.
func CoverMatrix(g *graph.Graph) *autodiff.SparseMat {
	n := g.NumNodes()
	var dst, src []int32
	var w []float64
	for u := 0; u < n; u++ {
		dst = append(dst, int32(u))
		src = append(src, int32(u))
		w = append(w, 1)
		seen := map[graph.NodeID]bool{graph.NodeID(u): true}
		for _, a := range g.In(graph.NodeID(u)) {
			if !seen[a.To] {
				seen[a.To] = true
				dst = append(dst, int32(u))
				src = append(src, int32(a.To))
				w = append(w, 1)
			}
		}
	}
	return autodiff.NewSparse(n, n, dst, src, w)
}

// MaxCoverLossCover is MaxCoverLoss with the coverage operator supplied by
// the caller (from CoverMatrix on the same graph).
func MaxCoverLossCover(tp *autodiff.Tape, g *graph.Graph, scores *autodiff.Node, k int, beta float64, cover *autodiff.SparseMat) *autodiff.Node {
	if scores.Value.Cols != 1 || scores.Value.Rows != g.NumNodes() {
		panic(fmt.Sprintf("gnn: MaxCoverLoss scores %dx%d for %d-node graph",
			scores.Value.Rows, scores.Value.Cols, g.NumNodes()))
	}
	if k < 1 || beta < 0 {
		panic(fmt.Sprintf("gnn: MaxCoverLoss(k=%d, beta=%v) invalid", k, beta))
	}
	if cover.NumRows != g.NumNodes() || cover.NumCols != g.NumNodes() {
		panic(fmt.Sprintf("gnn: MaxCoverLossCover operator %dx%d for %d-node graph",
			cover.NumRows, cover.NumCols, g.NumNodes()))
	}

	logSurvive := autodiff.Log(autodiff.OneMinus(scores)) // log(1 − x_v)
	sumLogs := autodiff.SpMM(cover, logSurvive)           // Σ over cover(u)
	uncovered := autodiff.Sum(autodiff.Exp(sumLogs))      // Σ_u Π (1 − x_v)

	// Soft cardinality: β·relu(Σx − k).
	total := autodiff.Sum(scores)
	excess := autodiff.ReLU(autodiff.AddScalar(total, -float64(k)))
	penalty := autodiff.Scale(excess, beta)
	return autodiff.Add(uncovered, penalty)
}

// CoverageValue evaluates the (deterministic) coverage of a chosen node
// set: the number of nodes that are chosen or have a chosen in-neighbor.
func CoverageValue(g *graph.Graph, chosen []graph.NodeID) int {
	mark := make([]bool, g.NumNodes())
	for _, v := range chosen {
		mark[v] = true
		for _, a := range g.Out(v) {
			mark[a.To] = true
		}
	}
	covered := 0
	for _, m := range mark {
		if m {
			covered++
		}
	}
	return covered
}

// GreedyMaxCover returns the classic greedy (1−1/e)-approximate solution,
// the ground truth the learned solver is compared against.
func GreedyMaxCover(g *graph.Graph, k int) []graph.NodeID {
	n := g.NumNodes()
	covered := make([]bool, n)
	chosen := make([]graph.NodeID, 0, k)
	inSet := make([]bool, n)
	for len(chosen) < k && len(chosen) < n {
		best, bestGain := graph.NodeID(-1), -1
		for v := 0; v < n; v++ {
			if inSet[v] {
				continue
			}
			gain := 0
			if !covered[v] {
				gain++
			}
			for _, a := range g.Out(graph.NodeID(v)) {
				if !covered[a.To] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = graph.NodeID(v), gain
			}
		}
		if best < 0 {
			break
		}
		inSet[best] = true
		chosen = append(chosen, best)
		covered[best] = true
		for _, a := range g.Out(best) {
			covered[a.To] = true
		}
	}
	return chosen
}

// CutValue counts edges crossing the partition defined by side (true =
// side A).
func CutValue(g *graph.Graph, side []bool) int {
	cut := 0
	for _, e := range g.Edges() {
		if side[e.From] != side[e.To] {
			cut++
		}
	}
	return cut
}
