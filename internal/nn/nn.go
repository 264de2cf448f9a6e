// Package nn provides the training substrate above autodiff: named
// parameter sets, Glorot initialization, the Adam optimizer, per-sample
// gradient clipping (the Clip_C step of DP-SGD, Algorithm 2), and
// flat-vector views of gradients for noise injection.
package nn

import (
	"context"
	"math"
	"math/rand"

	"privim/internal/autodiff"
	"privim/internal/parallel"
	"privim/internal/tensor"
)

// Param is a named trainable matrix.
type Param struct {
	Name  string
	Value *tensor.Matrix
}

// ParamSet owns a model's trainable parameters in a stable order.
type ParamSet struct {
	params []*Param
	byName map[string]*Param
}

// NewParamSet returns an empty parameter set.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// Add registers a new rows×cols parameter and returns it. It panics on
// duplicate names so model wiring errors fail fast.
func (ps *ParamSet) Add(name string, rows, cols int) *Param {
	if _, dup := ps.byName[name]; dup {
		panic("nn: duplicate parameter " + name)
	}
	p := &Param{Name: name, Value: tensor.New(rows, cols)}
	ps.params = append(ps.params, p)
	ps.byName[name] = p
	return p
}

// Get returns the named parameter or nil.
func (ps *ParamSet) Get(name string) *Param { return ps.byName[name] }

// All returns parameters in registration order.
func (ps *ParamSet) All() []*Param { return ps.params }

// NumParams returns the total scalar parameter count.
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, p := range ps.params {
		n += len(p.Value.Data)
	}
	return n
}

// GlorotInit fills every parameter with Uniform(−a, a), a = √(6/(fanIn+fanOut)),
// treating rows as fan-in and cols as fan-out.
func (ps *ParamSet) GlorotInit(rng *rand.Rand) {
	for _, p := range ps.params {
		a := math.Sqrt(6 / float64(p.Value.Rows+p.Value.Cols))
		p.Value.RandUniform(a, rng)
	}
}

// Grads is a gradient snapshot aligned with a ParamSet's layout.
type Grads struct {
	mats []*tensor.Matrix
}

// NewGrads allocates a zeroed gradient snapshot matching ps.
func NewGrads(ps *ParamSet) *Grads {
	g := &Grads{mats: make([]*tensor.Matrix, len(ps.params))}
	for i, p := range ps.params {
		g.mats[i] = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	return g
}

// Mats exposes per-parameter gradient matrices in layout order.
func (g *Grads) Mats() []*tensor.Matrix { return g.mats }

// Add accumulates o into g, scaled by s.
func (g *Grads) Add(s float64, o *Grads) {
	for i, m := range g.mats {
		tensor.AXPY(m, s, o.mats[i])
	}
}

// CopyFrom overwrites g with the values of o (same layout required).
func (g *Grads) CopyFrom(o *Grads) {
	if len(g.mats) != len(o.mats) {
		panic("nn: CopyFrom layout mismatch")
	}
	for i, m := range g.mats {
		copy(m.Data, o.mats[i].Data)
	}
}

// SumTree reduces grads[0..n) into grads[0] (clobbering the rest) with a
// fixed binary tree: level s sums pairs (i, i+s) for i ≡ 0 (mod 2s).
// The tree shape depends only on len(grads), never on the worker count,
// so the floating-point result is identical whether the levels run
// serially or fanned out — the property DP-SGD's noise accumulator needs
// to stay reproducible under -workers. Pairs within a level touch
// disjoint gradients and run on the shared worker pool.
func SumTree(grads []*Grads, workers int) {
	n := len(grads)
	if parallel.Resolve(workers) == 1 {
		// Same pair order as the fanned-out path (disjoint writes make the
		// dynamic schedule irrelevant), minus the per-level closure the
		// goroutine fan-out needs — the serial path allocates nothing.
		for stride := 1; stride < n; stride *= 2 {
			for i := 0; i+stride < n; i += 2 * stride {
				grads[i].Add(1, grads[i+stride])
			}
		}
		return
	}
	for stride := 1; stride < n; stride *= 2 {
		pairs := 0
		for i := 0; i+stride < n; i += 2 * stride {
			pairs++
		}
		if pairs == 0 {
			continue
		}
		step := 2 * stride
		parallel.For(context.Background(), workers, pairs, 1, func(_, lo, hi int) {
			for p := lo; p < hi; p++ {
				i := p * step
				grads[i].Add(1, grads[i+stride])
			}
		})
	}
}

// Norm2 returns the global l2 norm across all parameter gradients.
func (g *Grads) Norm2() float64 {
	s := 0.0
	for _, m := range g.mats {
		for _, v := range m.Data {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Scale multiplies every gradient by s in place.
func (g *Grads) Scale(s float64) {
	for _, m := range g.mats {
		for i := range m.Data {
			m.Data[i] *= s
		}
	}
}

// ClipL2 rescales g in place so its global l2 norm is at most c (DP-SGD
// per-sample clipping, Algorithm 2 line 6) and returns the pre-clip norm.
func (g *Grads) ClipL2(c float64) float64 {
	n := g.Norm2()
	if n > c {
		g.Scale(c / n)
	}
	return n
}

// AddGaussianNoise adds N(0, sigma²) noise independently to every gradient
// coordinate (Algorithm 2 line 8; sigma already includes the sensitivity
// factor).
func (g *Grads) AddGaussianNoise(sigma float64, rng *rand.Rand) {
	if sigma < 0 {
		panic("nn: negative noise scale")
	}
	if sigma == 0 {
		return
	}
	for _, m := range g.mats {
		for i := range m.Data {
			m.Data[i] += rng.NormFloat64() * sigma
		}
	}
}

// Bind places every parameter of ps on the tape as leaves and returns the
// nodes in layout order, so a model forward pass can reference them.
func Bind(tp *autodiff.Tape, ps *ParamSet) []*autodiff.Node {
	nodes := make([]*autodiff.Node, len(ps.params))
	for i, p := range ps.params {
		nodes[i] = tp.Leaf(p.Value)
	}
	return nodes
}

// BindInto is Bind reusing the caller's slice (typically bound[:0] from
// the previous iteration on a reset tape), so steady-state training
// iterations bind parameters without allocating.
func BindInto(tp *autodiff.Tape, ps *ParamSet, into []*autodiff.Node) []*autodiff.Node {
	into = into[:0]
	for _, p := range ps.params {
		into = append(into, tp.Leaf(p.Value))
	}
	return into
}

// Collect copies the gradients accumulated on bound parameter nodes into a
// Grads snapshot. Parameters that did not participate get zero gradients.
func Collect(nodes []*autodiff.Node, into *Grads) {
	if len(nodes) != len(into.mats) {
		panic("nn: Collect layout mismatch")
	}
	for i, n := range nodes {
		dst := into.mats[i]
		dst.Zero()
		if n.Grad != nil {
			copy(dst.Data, n.Grad.Data)
		}
	}
}
