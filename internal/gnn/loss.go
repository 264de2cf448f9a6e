package gnn

import (
	"fmt"

	"privim/internal/autodiff"
	"privim/internal/graph"
)

// LossConfig parameterizes the IM probabilistic penalty loss (Eq. 5).
type LossConfig struct {
	// Steps is the diffusion horizon j; Theorem 2 requires j ≤ r (the GNN
	// depth), and the paper's experiments use j = 1.
	Steps int
	// Lambda trades off influence coverage against seed-set size (Eq. 5's λ).
	Lambda float64
}

// IMLoss builds the Eq. 5 loss on the tape:
//
//	L = Σ_u Π_{i=1..j} (1 − p̂_i(u)) + λ Σ_u x_u
//
// where x is the model's seed-probability output and p̂_i is the Theorem 2
// message-passing upper bound on the step-i activation probability,
// p̂_i(u) = φ(Σ_{v∈N(u)} w_vu a_{i-1,v}) with φ = tanh restricted to
// nonnegative inputs (φ(0)=0, saturating at 1).
//
// Note the first term deliberately does NOT credit a node for being a seed
// itself (no (1−x_u) factor): gradients flow only through the p̂ sums, so
// seed mass is pushed toward nodes with large outgoing influence — the
// hubs top-k selection should return. Crediting self-seeding instead
// drives uncoverable low-in-degree nodes to x≈1, which inverts the
// ranking.
//
// adj is the in-adjacency aggregation operator, autodiff.InAdjacency(g).
// Training loops evaluate the loss on the same subgraph every iteration,
// so they build it once per subgraph. The returned node is a 1×1 scalar
// suitable for Tape.Backward.
func IMLoss(tp *autodiff.Tape, g *graph.Graph, scores *autodiff.Node, cfg LossConfig, adj *autodiff.SparseMat) *autodiff.Node {
	if cfg.Steps < 1 {
		panic(fmt.Sprintf("gnn: IMLoss steps %d < 1", cfg.Steps))
	}
	if scores.Value.Cols != 1 || scores.Value.Rows != g.NumNodes() {
		panic(fmt.Sprintf("gnn: IMLoss scores %dx%d for %d-node graph",
			scores.Value.Rows, scores.Value.Cols, g.NumNodes()))
	}
	if adj.NumRows != g.NumNodes() || adj.NumCols != g.NumNodes() {
		panic(fmt.Sprintf("gnn: IMLoss adjacency %dx%d for %d-node graph",
			adj.NumRows, adj.NumCols, g.NumNodes()))
	}
	// a_0 = x (probability of being active at step 0 = being a seed).
	act := scores
	var survival *autodiff.Node
	for i := 0; i < cfg.Steps; i++ {
		// p̂_{i+1}(u) = φ(Σ_v w_vu a_i(v)); inputs are nonnegative so tanh
		// maps [0,∞) → [0,1) monotonically with φ(0)=0.
		p := autodiff.Tanh(autodiff.SpMM(adj, act))
		if survival == nil {
			survival = autodiff.OneMinus(p)
		} else {
			survival = autodiff.Mul(survival, autodiff.OneMinus(p))
		}
		act = p
	}
	coverage := autodiff.Sum(survival)
	penalty := autodiff.Scale(autodiff.Sum(scores), cfg.Lambda)
	return autodiff.Add(coverage, penalty)
}
