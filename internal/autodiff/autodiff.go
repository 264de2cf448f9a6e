// Package autodiff implements reverse-mode automatic differentiation over
// dense matrices, providing exactly the operator set needed to express
// message-passing GNNs: dense GEMM, sparse-adjacency multiplication, row
// gather/scatter, segment softmax, a fused multi-head graph-attention layer
// over edge lists, elementwise nonlinearities, and reductions.
//
// Differentiation is tape-based: every operation appends a node to a Tape,
// and Backward walks the tape in reverse creation order (a valid topological
// order by construction). Gradients are exact; the test suite verifies every
// operator against central finite differences.
//
// Nodes carry an opcode plus operand references instead of per-op backward
// closures, and every intermediate matrix (values, gradients, op scratch) is
// drawn from a tape-owned free pool. Tape.Reset rewinds the node arena and
// recycles the matrices, so a steady-state forward/backward pass on a reused
// tape allocates nothing: per-sample DP-SGD loops reset one tape per worker
// instead of building ~10³ matrices per example. Matrices handed out by a
// tape are owned by it — copy results out before Reset.
package autodiff

import (
	"fmt"
	"math"

	"privim/internal/tensor"
)

// opcode identifies how a node was produced, which determines its backward
// rule. Operand references live in Node.x/y plus op-specific fields.
type opcode uint8

const (
	opLeaf opcode = iota
	opMatMul
	opAdd
	opMul
	opScale
	opAddScalar
	opOneMinus
	opAddRowBroadcast
	opReLU
	opLeakyReLU
	opSigmoid
	opExp
	opLog
	opTanh
	opSum
	opConcatCols
	opSpMM
	opGatherRows
	opScatterAddRows
	opMulColBroadcast
	opSegmentSoftmax
	opAttention
)

// arenaChunk is the node-arena block size: one GNN forward/backward pass
// records a few hundred nodes, so a handful of blocks cover it.
const arenaChunk = 128

// Tape records the computation graph for one forward pass. A fresh tape is
// cheap, but the intended steady-state pattern is one long-lived tape per
// worker with Reset between examples: Reset rewinds the node arena and
// returns every tape-allocated matrix to an internal free pool, so repeated
// passes of the same shape allocate nothing.
type Tape struct {
	nodes  []*Node
	blocks [][]Node // node arena, reused across Reset
	block  int      // current block index
	used   int      // nodes handed out of blocks[block]

	owned []*tensor.Matrix // matrices handed out since the last Reset
	free  []*tensor.Matrix // recycled matrices available to take

	attns []*attnState // Attention payloads, reused across Reset
	nattn int          // payloads handed out since the last Reset
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Len returns the number of recorded nodes (useful in tests).
func (t *Tape) Len() int { return len(t.nodes) }

// Reset rewinds the tape for a fresh forward pass, recycling every node and
// every matrix the tape allocated (values, gradients, op scratch). All Nodes
// and tape-owned matrices from the previous pass become invalid: anything
// that must survive — losses, scores, gradients — has to be copied out
// first (nn.Collect does). Leaf matrices are caller-owned and untouched.
//
// The recycled matrices go on the free list in reverse take order, and
// take pops from its end, so a pass that repeats the previous one's
// shapes gets each of its buffers back exactly: its k-th take pops the
// matrix the previous pass's k-th take held.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.block, t.used = 0, 0
	t.nattn = 0
	for i := len(t.owned) - 1; i >= 0; i-- {
		t.free = append(t.free, t.owned[i])
	}
	t.owned = t.owned[:0]
}

// alloc hands out a zeroed node from the arena, growing it block-wise.
func (t *Tape) alloc() *Node {
	if t.block == len(t.blocks) {
		t.blocks = append(t.blocks, make([]Node, arenaChunk))
	}
	blk := t.blocks[t.block]
	n := &blk[t.used]
	t.used++
	if t.used == len(blk) {
		t.block++
		t.used = 0
	}
	*n = Node{}
	return n
}

// take hands out a rows×cols matrix from the tape's free pool, allocating
// only when no recycled buffer is large enough. The matrix belongs to the
// tape and is reclaimed by Reset. zero controls whether the contents are
// cleared (required for accumulation targets; skipped for overwrite fills).
func (t *Tape) take(rows, cols int, zero bool) *tensor.Matrix {
	need := rows * cols
	for i := len(t.free) - 1; i >= 0; i-- {
		m := t.free[i]
		if cap(m.Data) >= need {
			last := len(t.free) - 1
			t.free[i] = t.free[last]
			t.free[last] = nil
			t.free = t.free[:last]
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:need]
			if zero {
				for j := range m.Data {
					m.Data[j] = 0
				}
			}
			t.owned = append(t.owned, m)
			return m
		}
	}
	m := tensor.New(rows, cols) // fresh buffers come back zeroed
	t.owned = append(t.owned, m)
	return m
}

// Node is one value in the computation graph.
type Node struct {
	// Value holds the forward result. Grad accumulates ∂output/∂Value during
	// Backward; it is nil until the node participates in a backward pass.
	// Both are tape-owned for non-leaf nodes: valid only until Tape.Reset.
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	tape *Tape
	op   opcode
	x, y *Node

	// Op-specific payload (see the opcode's constructor).
	scalar float64    // opScale, opAddScalar, opLeakyReLU, opAttention
	idx    []int32    // opGatherRows, opScatterAddRows, opSegmentSoftmax seg
	sparse *SparseMat // opSpMM
	n      int        // opSegmentSoftmax numSegments
	attn   *attnState // opAttention
}

func (t *Tape) add(op opcode, val *tensor.Matrix, x, y *Node) *Node {
	n := t.alloc()
	n.Value = val
	n.tape = t
	n.op = op
	n.x, n.y = x, y
	t.nodes = append(t.nodes, n)
	return n
}

// Leaf introduces an input matrix onto the tape. Its gradient is available
// after Backward (used both for parameters and, in sensitivity analyses,
// inputs). The matrix is used by reference: callers must not mutate it while
// the tape is live.
func (t *Tape) Leaf(m *tensor.Matrix) *Node {
	return t.add(opLeaf, m, nil, nil)
}

// grad returns the node's gradient accumulator, allocating on first use.
func (n *Node) grad() *tensor.Matrix {
	if n.Grad == nil {
		n.Grad = n.tape.take(n.Value.Rows, n.Value.Cols, true)
	}
	return n.Grad
}

// Backward runs reverse-mode differentiation from out, which must be a 1×1
// scalar node on this tape. Gradients accumulate in each node's Grad field.
func (t *Tape) Backward(out *Node) {
	if out.tape != t {
		panic("autodiff: Backward on node from another tape")
	}
	if out.Value.Rows != 1 || out.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward requires scalar output, got %dx%d", out.Value.Rows, out.Value.Cols))
	}
	out.grad().Data[0] = 1
	// Reverse creation order is a topological order of the DAG.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.Grad != nil && n.op != opLeaf {
			n.step()
		}
	}
}

// step applies one node's backward rule, accumulating into its operands'
// gradients. Dispatch is a switch over the opcode rather than a stored
// closure so recording an op never allocates.
func (n *Node) step() {
	switch n.op {
	case opMatMul:
		// dA += dOut·Bᵀ ; dB += Aᵀ·dOut — transpose-free kernels.
		tensor.MatMulNTInto(n.x.grad(), n.Grad, n.y.Value)
		tensor.MatMulTNInto(n.y.grad(), n.x.Value, n.Grad)
	case opAdd:
		tensor.AXPY(n.x.grad(), 1, n.Grad)
		tensor.AXPY(n.y.grad(), 1, n.Grad)
	case opMul:
		ga, gb := n.x.grad(), n.y.grad()
		av, bv := n.x.Value.Data, n.y.Value.Data
		for i, g := range n.Grad.Data {
			ga.Data[i] += g * bv[i]
			gb.Data[i] += g * av[i]
		}
	case opScale:
		tensor.AXPY(n.x.grad(), n.scalar, n.Grad)
	case opAddScalar:
		tensor.AXPY(n.x.grad(), 1, n.Grad)
	case opOneMinus:
		tensor.AXPY(n.x.grad(), -1, n.Grad)
	case opAddRowBroadcast:
		tensor.AXPY(n.x.grad(), 1, n.Grad)
		gb := n.y.grad()
		for i := 0; i < n.Grad.Rows; i++ {
			row := n.Grad.Row(i)
			for j, g := range row {
				gb.Data[j] += g
			}
		}
	case opReLU:
		ga := n.x.grad()
		xv := n.x.Value.Data
		for i, g := range n.Grad.Data {
			if xv[i] > 0 {
				ga.Data[i] += g
			}
		}
	case opLeakyReLU:
		ga := n.x.grad()
		xv := n.x.Value.Data
		for i, g := range n.Grad.Data {
			if xv[i] > 0 {
				ga.Data[i] += g
			} else {
				ga.Data[i] += n.scalar * g
			}
		}
	case opSigmoid:
		ga := n.x.grad()
		for i, g := range n.Grad.Data {
			s := n.Value.Data[i]
			ga.Data[i] += g * s * (1 - s)
		}
	case opExp:
		ga := n.x.grad()
		for i, g := range n.Grad.Data {
			ga.Data[i] += g * n.Value.Data[i]
		}
	case opLog:
		ga := n.x.grad()
		xv := n.x.Value.Data
		for i, g := range n.Grad.Data {
			if xv[i] >= logFloor {
				ga.Data[i] += g / xv[i]
			}
			// Below the floor the function is constant: zero gradient.
		}
	case opTanh:
		ga := n.x.grad()
		for i, g := range n.Grad.Data {
			th := n.Value.Data[i]
			ga.Data[i] += g * (1 - th*th)
		}
	case opSum:
		g := n.Grad.Data[0]
		ga := n.x.grad()
		for i := range ga.Data {
			ga.Data[i] += g
		}
	case opConcatCols:
		ga, gb := n.x.grad(), n.y.grad()
		ca, cb := n.x.Value.Cols, n.y.Value.Cols
		for i := 0; i < n.Grad.Rows; i++ {
			grow := n.Grad.Row(i)
			arow, brow := ga.Row(i), gb.Row(i)
			for j := 0; j < ca; j++ {
				arow[j] += grow[j]
			}
			for j := 0; j < cb; j++ {
				brow[j] += grow[ca+j]
			}
		}
	case opSpMM:
		spmmBackward(n.sparse, n.Grad, n.x.grad())
	case opGatherRows:
		gx := n.x.grad()
		for i, r := range n.idx {
			grow := n.Grad.Row(i)
			xrow := gx.Row(int(r))
			for j, g := range grow {
				xrow[j] += g
			}
		}
	case opScatterAddRows:
		gx := n.x.grad()
		for i, r := range n.idx {
			grow := n.Grad.Row(int(r))
			xrow := gx.Row(i)
			for j, g := range grow {
				xrow[j] += g
			}
		}
	case opMulColBroadcast:
		gx, ga := n.x.grad(), n.y.grad()
		for i := 0; i < n.Value.Rows; i++ {
			a := n.y.Value.Data[i]
			grow := n.Grad.Row(i)
			xrow := n.x.Value.Row(i)
			gxrow := gx.Row(i)
			dot := 0.0
			for j, g := range grow {
				gxrow[j] += a * g
				dot += g * xrow[j]
			}
			ga.Data[i] += dot
		}
	case opSegmentSoftmax:
		dots := n.tape.take(n.n, 1, false)
		segmentSoftmaxGrad(n.x.grad().Data, n.Value.Data, n.Grad.Data, n.idx, dots.Data)
	case opAttention:
		attentionBackward(n)
	default:
		panic(fmt.Sprintf("autodiff: unknown opcode %d", n.op))
	}
}

func sameTape(op string, nodes ...*Node) *Tape {
	t := nodes[0].tape
	for _, n := range nodes[1:] {
		if n.tape != t {
			panic("autodiff: " + op + " mixes tapes")
		}
	}
	return t
}

// MatMul returns a×b.
func MatMul(a, b *Node) *Node {
	t := sameTape("MatMul", a, b)
	val := t.take(a.Value.Rows, b.Value.Cols, false)
	tensor.MatMulInto(val, a.Value, b.Value, false)
	return t.add(opMatMul, val, a, b)
}

// Add returns a+b elementwise.
func Add(a, b *Node) *Node {
	t := sameTape("Add", a, b)
	val := t.take(a.Value.Rows, a.Value.Cols, false)
	bd := b.Value.Data
	for i, v := range a.Value.Data {
		val.Data[i] = v + bd[i]
	}
	return t.add(opAdd, val, a, b)
}

// Mul returns the Hadamard product a∘b.
func Mul(a, b *Node) *Node {
	t := sameTape("Mul", a, b)
	val := t.take(a.Value.Rows, a.Value.Cols, false)
	bd := b.Value.Data
	for i, v := range a.Value.Data {
		val.Data[i] = v * bd[i]
	}
	return t.add(opMul, val, a, b)
}

// Scale returns s·a for a constant scalar s.
func Scale(a *Node, s float64) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		val.Data[i] = s * v
	}
	out := a.tape.add(opScale, val, a, nil)
	out.scalar = s
	return out
}

// AddScalar returns a+s elementwise for a constant scalar s.
func AddScalar(a *Node, s float64) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		val.Data[i] = v + s
	}
	out := a.tape.add(opAddScalar, val, a, nil)
	out.scalar = s
	return out
}

// OneMinus returns 1−a elementwise (convenience for the IM loss's survival
// probabilities).
func OneMinus(a *Node) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		val.Data[i] = 1 - v
	}
	return a.tape.add(opOneMinus, val, a, nil)
}

// AddRowBroadcast returns a + bias where bias is 1×cols and is added to
// every row of a (the standard linear-layer bias).
func AddRowBroadcast(a, bias *Node) *Node {
	t := sameTape("AddRowBroadcast", a, bias)
	if bias.Value.Rows != 1 || bias.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("autodiff: AddRowBroadcast bias %dx%d vs a %dx%d",
			bias.Value.Rows, bias.Value.Cols, a.Value.Rows, a.Value.Cols))
	}
	val := t.take(a.Value.Rows, a.Value.Cols, false)
	bd := bias.Value.Data
	for i := 0; i < val.Rows; i++ {
		arow := a.Value.Row(i)
		vrow := val.Row(i)
		for j, v := range arow {
			vrow[j] = v + bd[j]
		}
	}
	return t.add(opAddRowBroadcast, val, a, bias)
}

// ReLU returns max(0, a) elementwise.
func ReLU(a *Node) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		if v > 0 {
			val.Data[i] = v
		} else {
			val.Data[i] = 0
		}
	}
	return a.tape.add(opReLU, val, a, nil)
}

// LeakyReLU returns a for a>0 and alpha·a otherwise.
func LeakyReLU(a *Node, alpha float64) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		if v > 0 {
			val.Data[i] = v
		} else {
			val.Data[i] = alpha * v
		}
	}
	out := a.tape.add(opLeakyReLU, val, a, nil)
	out.scalar = alpha
	return out
}

// Sigmoid returns 1/(1+e^{−a}) elementwise.
func Sigmoid(a *Node) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		val.Data[i] = sigmoid(v)
	}
	return a.tape.add(opSigmoid, val, a, nil)
}

func sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

// Exp returns e^a elementwise.
func Exp(a *Node) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		val.Data[i] = math.Exp(v)
	}
	return a.tape.add(opExp, val, a, nil)
}

// logFloor keeps Log's gradient finite when probabilities touch 0.
const logFloor = 1e-12

// Log returns ln(max(a, floor)) elementwise; the floor (1e-12) keeps the
// gradient finite when probabilities touch 0.
func Log(a *Node) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		if v < logFloor {
			v = logFloor
		}
		val.Data[i] = math.Log(v)
	}
	return a.tape.add(opLog, val, a, nil)
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Node) *Node {
	val := a.tape.take(a.Value.Rows, a.Value.Cols, false)
	for i, v := range a.Value.Data {
		val.Data[i] = math.Tanh(v)
	}
	return a.tape.add(opTanh, val, a, nil)
}

// Sum reduces a to a 1×1 scalar Σa.
func Sum(a *Node) *Node {
	val := a.tape.take(1, 1, false)
	val.Data[0] = a.Value.Sum()
	return a.tape.add(opSum, val, a, nil)
}

// ConcatCols returns [a | b]: rows must match.
func ConcatCols(a, b *Node) *Node {
	t := sameTape("ConcatCols", a, b)
	if a.Value.Rows != b.Value.Rows {
		panic("autodiff: ConcatCols row mismatch")
	}
	rows, ca := a.Value.Rows, a.Value.Cols
	val := t.take(rows, ca+b.Value.Cols, false)
	for i := 0; i < rows; i++ {
		copy(val.Row(i)[:ca], a.Value.Row(i))
		copy(val.Row(i)[ca:], b.Value.Row(i))
	}
	return t.add(opConcatCols, val, a, b)
}
