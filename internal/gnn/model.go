// Package gnn implements the message-passing models evaluated in the paper
// (Appendix G): GCN, GraphSAGE, GAT, GRAT, and GIN, plus the probabilistic
// penalty loss for influence maximization (Eq. 5, built on the Theorem 2
// diffusion upper bound). Models are expressed over the autodiff tape so
// DP-SGD (Algorithm 2) can obtain exact per-subgraph gradients.
package gnn

import (
	"context"
	"fmt"
	"math/rand"

	"privim/internal/autodiff"
	"privim/internal/graph"
	"privim/internal/nn"
	"privim/internal/tensor"
)

// Kind selects a GNN architecture.
type Kind string

// Supported architectures. GRAT (source-normalized graph attention) is the
// paper's default.
const (
	GCN       Kind = "gcn"
	GraphSAGE Kind = "sage"
	GAT       Kind = "gat"
	GRAT      Kind = "grat"
	GIN       Kind = "gin"
)

// AllKinds lists the architectures in the paper's Figure 9 order.
func AllKinds() []Kind { return []Kind{GRAT, GraphSAGE, GCN, GAT, GIN} }

// Config describes a model instance.
type Config struct {
	Kind      Kind
	InputDim  int // node feature dimension d
	HiddenDim int // paper: 32
	Layers    int // paper: 3 (this is r, the GNN depth)
	// LeakySlope is the LeakyReLU negative slope for attention scores
	// (default 0.2 as in GAT).
	LeakySlope float64
	// Heads is the number of attention heads for GAT/GRAT (default 1).
	// Heads share the layer projection and average their aggregations.
	Heads int
}

func (c *Config) normalize() error {
	switch c.Kind {
	case GCN, GraphSAGE, GAT, GRAT, GIN:
	default:
		return fmt.Errorf("gnn: unknown kind %q", c.Kind)
	}
	if c.InputDim < 1 || c.HiddenDim < 1 || c.Layers < 1 {
		return fmt.Errorf("gnn: invalid dims %+v", *c)
	}
	if c.LeakySlope == 0 {
		c.LeakySlope = 0.2
	}
	if c.Heads == 0 {
		c.Heads = 1
	}
	if c.Heads < 0 {
		return fmt.Errorf("gnn: negative attention heads %d", c.Heads)
	}
	return nil
}

// Model is a GNN with trainable parameters. One Model is shared across all
// subgraphs; Forward builds a fresh computation per subgraph.
type Model struct {
	Cfg    Config
	Params *nn.ParamSet

	// Parameter positions resolved at construction so Forward indexes
	// bound[] directly instead of formatting names per call.
	layers             []layerRefs
	readoutW, readoutB int
}

// layerRefs holds one layer's parameter positions in the ParamSet layout.
// Unused slots for a given Kind stay zero and are never read. A GAT/GRAT
// layer's Heads attention vectors sit at consecutive positions from attn.
type layerRefs struct {
	w, w2, eps, b, attn int
}

// New constructs a model and registers its parameters (uninitialized; call
// Init).
func New(cfg Config) (*Model, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	m := &Model{Cfg: cfg, Params: nn.NewParamSet()}
	add := func(name string, rows, cols int) int {
		i := len(m.Params.All())
		m.Params.Add(name, rows, cols)
		return i
	}
	in := cfg.InputDim
	m.layers = make([]layerRefs, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		out := cfg.HiddenDim
		refs := &m.layers[l]
		switch cfg.Kind {
		case GCN:
			refs.w = add(lname(l, "w"), in, out)
		case GraphSAGE:
			// Concatenated [self | mean-neighbors] projection.
			refs.w = add(lname(l, "w"), 2*in, out)
		case GAT, GRAT:
			refs.w = add(lname(l, "w"), in, out)
			refs.attn = add(hname(l, 0), 2*out, 1)
			for h := 1; h < cfg.Heads; h++ {
				add(hname(l, h), 2*out, 1)
			}
		case GIN:
			refs.w = add(lname(l, "w1"), in, out)
			refs.w2 = add(lname(l, "w2"), out, out)
			refs.eps = add(lname(l, "eps"), 1, 1)
		}
		refs.b = add(lname(l, "b"), 1, out)
		in = out
	}
	// Readout: [final hidden | raw features] -> scalar seed-probability
	// logit. The skip connection to the raw features keeps degree-scale
	// information available at inference even when normalized aggregation
	// (e.g. GCN's symmetric normalization) attenuates it through the
	// layers.
	m.readoutW = add("readout.w", in+cfg.InputDim, 1)
	m.readoutB = add("readout.b", 1, 1)
	return m, nil
}

func lname(l int, part string) string { return fmt.Sprintf("layer%d.%s", l, part) }

func hname(l, head int) string { return fmt.Sprintf("layer%d.attn%d", l, head) }

// Init initializes all parameters (Glorot) deterministically from rng.
func (m *Model) Init(rng *rand.Rand) { m.Params.GlorotInit(rng) }

// edgeList materializes g's arcs v→u as (dst=u, src=v) slices with self
// loops appended, the form attention layers consume.
func edgeList(g *graph.Graph) (dst, src []int32) {
	n := g.NumNodes()
	arcs := n // one self loop per node
	for u := 0; u < n; u++ {
		arcs += g.InDegree(graph.NodeID(u))
	}
	dst, src = make([]int32, 0, arcs), make([]int32, 0, arcs)
	for u := 0; u < n; u++ {
		for _, a := range g.In(graph.NodeID(u)) {
			dst = append(dst, int32(u))
			src = append(src, int32(a.To))
		}
	}
	for u := 0; u < n; u++ {
		dst = append(dst, int32(u))
		src = append(src, int32(u))
	}
	return dst, src
}

// meanInAdjacency builds the row-normalized in-neighbor averaging operator
// used by GraphSAGE.
func meanInAdjacency(g *graph.Graph) *autodiff.SparseMat {
	n := g.NumNodes()
	var dst, src []int32
	var w []float64
	for u := 0; u < n; u++ {
		in := g.In(graph.NodeID(u))
		if len(in) == 0 {
			continue
		}
		inv := 1 / float64(len(in))
		for _, a := range in {
			dst = append(dst, int32(u))
			src = append(src, int32(a.To))
			w = append(w, inv)
		}
	}
	return autodiff.NewSparse(n, n, dst, src, w)
}

// sumInAdjacency builds the unweighted in-neighbor sum operator (GIN).
func sumInAdjacency(g *graph.Graph) *autodiff.SparseMat {
	n := g.NumNodes()
	var dst, src []int32
	var w []float64
	for u := 0; u < n; u++ {
		for _, a := range g.In(graph.NodeID(u)) {
			dst = append(dst, int32(u))
			src = append(src, int32(a.To))
			w = append(w, 1)
		}
	}
	return autodiff.NewSparse(n, n, dst, src, w)
}

// Prep caches the graph-derived, parameter-independent inputs one Forward
// pass needs: the aggregation operator (GCN/SAGE/GIN), the self-looped
// edge list (GAT/GRAT), and the GIN ε-broadcast ones column. Building
// these per call dominated Forward's allocations; a Prep is built once
// per (model kind, graph) pair and reused across iterations. Preps are
// read-only after construction and safe to share across workers.
type Prep struct {
	kind Kind
	n    int

	adj      *autodiff.SparseMat // GCN/SAGE/GIN aggregation operator
	dst, src []int32             // GAT/GRAT edge list with self loops
	ones     *tensor.Matrix      // GIN: n×1 of ones for ε broadcast
}

// NewPrep precomputes the Forward inputs for subgraph g under m's
// architecture.
func (m *Model) NewPrep(g *graph.Graph) *Prep {
	p := &Prep{kind: m.Cfg.Kind, n: g.NumNodes()}
	switch m.Cfg.Kind {
	case GCN:
		p.adj = autodiff.GCNNormalized(g)
	case GraphSAGE:
		p.adj = meanInAdjacency(g)
	case GAT, GRAT:
		p.dst, p.src = edgeList(g)
	case GIN:
		p.adj = sumInAdjacency(g)
		p.ones = tensor.New(p.n, 1)
		p.ones.Fill(1)
	}
	return p
}

// Forward runs the model on subgraph g with node features x (n×InputDim)
// and returns the n×1 vector of seed-selection probabilities in (0,1).
// bound must come from nn.Bind(tp, m.Params), and p from NewPrep on the
// same model kind and graph: training loops build one Prep per subgraph
// and reuse it across iterations.
func (m *Model) Forward(tp *autodiff.Tape, bound []*autodiff.Node, g *graph.Graph, x *tensor.Matrix, p *Prep) *autodiff.Node {
	m.check(g, x, p)
	h := tp.Leaf(x)
	for l := 0; l < m.Cfg.Layers; l++ {
		h = m.layer(l, tp, bound, h, p)
	}
	return m.readout(tp, bound, h, x)
}

// check panics unless x and p fit m over g.
func (m *Model) check(g *graph.Graph, x *tensor.Matrix, p *Prep) {
	if x.Rows != g.NumNodes() || x.Cols != m.Cfg.InputDim {
		panic(fmt.Sprintf("gnn: Forward features %dx%d for graph with %d nodes, input dim %d",
			x.Rows, x.Cols, g.NumNodes(), m.Cfg.InputDim))
	}
	if p.kind != m.Cfg.Kind || p.n != g.NumNodes() {
		panic(fmt.Sprintf("gnn: Forward prep built for kind %q / %d nodes, model is %q / %d",
			p.kind, p.n, m.Cfg.Kind, g.NumNodes()))
	}
}

// layer records message-passing layer l over the node states h and
// returns the layer's n×HiddenDim output.
func (m *Model) layer(l int, tp *autodiff.Tape, bound []*autodiff.Node, h *autodiff.Node, p *Prep) *autodiff.Node {
	refs := m.layers[l]
	switch m.Cfg.Kind {
	case GCN:
		agg := autodiff.SpMM(p.adj, h)
		z := autodiff.MatMul(agg, bound[refs.w])
		z = autodiff.AddRowBroadcast(z, bound[refs.b])
		return autodiff.ReLU(z)
	case GraphSAGE:
		neigh := autodiff.SpMM(p.adj, h)
		cat := autodiff.ConcatCols(h, neigh)
		z := autodiff.MatMul(cat, bound[refs.w])
		z = autodiff.AddRowBroadcast(z, bound[refs.b])
		return autodiff.ReLU(z)
	case GAT, GRAT:
		// GAT normalizes attention over each destination's in-edges
		// (Eq. 35); GRAT normalizes over each source's out-edges (Eq. 39),
		// reducing the reward for overlapping coverage.
		seg := p.dst
		if m.Cfg.Kind == GRAT {
			seg = p.src
		}
		wh := autodiff.MatMul(h, bound[refs.w])
		// Each head computes its own attention distribution over the
		// shared projection; head outputs are averaged.
		heads := bound[refs.attn : refs.attn+m.Cfg.Heads]
		agg := autodiff.Attention(wh, heads, p.dst, p.src, seg, m.Cfg.LeakySlope)
		agg = autodiff.AddRowBroadcast(agg, bound[refs.b])
		return autodiff.ReLU(agg)
	default: // GIN
		neigh := autodiff.SpMM(p.adj, h)
		// (1+ε)·h + Σ_neighbors h, with learnable scalar ε broadcast.
		col := autodiff.MatMul(tp.Leaf(p.ones), bound[refs.eps]) // n×1 of ε
		scaled := autodiff.MulColBroadcast(h, col)
		z := autodiff.Add(autodiff.Add(h, scaled), neigh)
		z = autodiff.MatMul(z, bound[refs.w])
		z = autodiff.ReLU(z)
		z = autodiff.MatMul(z, bound[refs.w2])
		z = autodiff.AddRowBroadcast(z, bound[refs.b])
		return autodiff.ReLU(z)
	}
}

// readout maps the last layer's states h and the raw features x to the
// n×1 seed probabilities.
func (m *Model) readout(tp *autodiff.Tape, bound []*autodiff.Node, h *autodiff.Node, x *tensor.Matrix) *autodiff.Node {
	skip := autodiff.ConcatCols(h, tp.Leaf(x))
	logits := autodiff.MatMul(skip, bound[m.readoutW])
	logits = autodiff.AddRowBroadcast(logits, bound[m.readoutB])
	return autodiff.Sigmoid(logits)
}

// Score runs a forward pass outside any training loop and returns the
// plain seed probabilities for graph g, bit for bit what Forward gives.
// Nothing is differentiated, so each layer runs on one tape that is
// Reset once the layer's output has been copied into a buffer of Score's
// own: a pass holds one layer's intermediates at a time, and each layer
// reuses the previous one's matrices. The pass checks ctx between
// layers, so a canceled or deadline-expired query stops within one
// layer's SpMM/GEMM work instead of running the full model; it then
// returns ctx's error. Under context.Background it never errors.
func (m *Model) Score(ctx context.Context, g *graph.Graph, x *tensor.Matrix) ([]float64, error) {
	p := m.NewPrep(g)
	m.check(g, x, p)
	tp := autodiff.NewTape()
	var bound []*autodiff.Node
	h := x
	hidden := tensor.New(g.NumNodes(), m.Cfg.HiddenDim)
	for l := 0; l < m.Cfg.Layers; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tp.Reset()
		bound = nn.BindInto(tp, m.Params, bound)
		out := m.layer(l, tp, bound, tp.Leaf(h), p)
		copy(hidden.Data, out.Value.Data)
		h = hidden
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tp.Reset()
	bound = nn.BindInto(tp, m.Params, bound)
	out := m.readout(tp, bound, tp.Leaf(h), x)
	scores := make([]float64, g.NumNodes())
	copy(scores, out.Value.Data)
	return scores, nil
}
