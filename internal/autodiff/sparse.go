package autodiff

import (
	"context"
	"fmt"
	"math"
	"sync"

	"privim/internal/graph"
	"privim/internal/parallel"
	"privim/internal/tensor"
)

// SparseMat is a static sparse matrix in coordinate form, used for
// adjacency-based aggregation. Entry k contributes W[k]·X[Src[k]] to output
// row Dst[k] under SpMM. It is data (not differentiated through).
//
// For large operands SpMM runs row-parallel on the shared worker pool:
// entries are lazily grouped by destination row (forward) and by source
// row (backward) with the original entry order preserved inside each
// group, so every output element accumulates in exactly the serial
// entry order and the result is bit-for-bit identical at any worker
// count.
type SparseMat struct {
	NumRows, NumCols int
	Dst, Src         []int32
	W                []float64

	groupOnce sync.Once
	byDst     rowGroup // entries grouped by Dst: forward row-parallelism
	bySrc     rowGroup // entries grouped by Src: backward row-parallelism
}

// rowGroup is a stable bucketing of entry indices by row: entries of row
// r are perm[start[r]:start[r+1]], in ascending original order.
type rowGroup struct {
	start []int32
	perm  []int32
}

// groupBy stably buckets entry indices by key (counting sort).
func groupBy(key []int32, numRows int) rowGroup {
	start := make([]int32, numRows+1)
	for _, r := range key {
		start[r+1]++
	}
	for r := 0; r < numRows; r++ {
		start[r+1] += start[r]
	}
	perm := make([]int32, len(key))
	next := make([]int32, numRows)
	copy(next, start[:numRows])
	for k, r := range key {
		perm[next[r]] = int32(k)
		next[r]++
	}
	return rowGroup{start: start, perm: perm}
}

func (a *SparseMat) groups() (byDst, bySrc rowGroup) {
	a.groupOnce.Do(func() {
		a.byDst = groupBy(a.Dst, a.NumRows)
		a.bySrc = groupBy(a.Src, a.NumCols)
	})
	return a.byDst, a.bySrc
}

// spmmParallelWork is the crossover (entries × columns) below which the
// streaming serial loops win; the n=20–80 training subgraphs stay serial,
// full-graph inference crosses it.
const spmmParallelWork = 1 << 16

// spmmRowGrain is the number of output rows one parallel chunk covers.
const spmmRowGrain = 64

// NewSparse validates and wraps a coordinate-form sparse matrix.
func NewSparse(numRows, numCols int, dst, src []int32, w []float64) *SparseMat {
	if len(dst) != len(src) || len(dst) != len(w) {
		panic("autodiff: NewSparse length mismatch")
	}
	for k := range dst {
		if int(dst[k]) >= numRows || int(src[k]) >= numCols || dst[k] < 0 || src[k] < 0 {
			panic(fmt.Sprintf("autodiff: NewSparse entry %d (%d,%d) out of %dx%d", k, dst[k], src[k], numRows, numCols))
		}
	}
	return &SparseMat{NumRows: numRows, NumCols: numCols, Dst: dst, Src: src, W: w}
}

// InAdjacency builds the aggregation matrix A with A[u][v] = w(v→u) for each
// arc v→u of g (Eq. 2 of the paper): SpMM(A, H) aggregates each node's
// in-neighbors weighted by influence probability.
func InAdjacency(g *graph.Graph) *SparseMat {
	n := g.NumNodes()
	var dst, src []int32
	var w []float64
	for u := 0; u < n; u++ {
		for _, a := range g.In(graph.NodeID(u)) {
			dst = append(dst, int32(u))
			src = append(src, int32(a.To))
			w = append(w, a.Weight)
		}
	}
	return &SparseMat{NumRows: n, NumCols: n, Dst: dst, Src: src, W: w}
}

// GCNNormalized builds the symmetric-normalized aggregation matrix
// Â[u][v] = 1/√(d̂_u·d̂_v) over in-arcs plus self loops, the GCN propagation
// rule (Appendix G, Eq. 31-32).
func GCNNormalized(g *graph.Graph) *SparseMat {
	n := g.NumNodes()
	deg := make([]float64, n) // d̂ = in-degree + 1 (self loop)
	for u := 0; u < n; u++ {
		deg[u] = float64(g.InDegree(graph.NodeID(u))) + 1
	}
	var dst, src []int32
	var w []float64
	for u := 0; u < n; u++ {
		dst = append(dst, int32(u))
		src = append(src, int32(u))
		w = append(w, 1/deg[u])
		for _, a := range g.In(graph.NodeID(u)) {
			dst = append(dst, int32(u))
			src = append(src, int32(a.To))
			w = append(w, 1/sqrtProd(deg[u], deg[a.To]))
		}
	}
	return &SparseMat{NumRows: n, NumCols: n, Dst: dst, Src: src, W: w}
}

func sqrtProd(a, b float64) float64 { return math.Sqrt(a * b) }

// SpMM returns A·X for a static sparse A and a tape node X. Forward and
// backward run row-parallel above the crossover; see SparseMat.
func SpMM(a *SparseMat, x *Node) *Node {
	if x.Value.Rows != a.NumCols {
		panic(fmt.Sprintf("autodiff: SpMM %dx%d × %dx%d", a.NumRows, a.NumCols, x.Value.Rows, x.Value.Cols))
	}
	cols := x.Value.Cols
	val := x.tape.take(a.NumRows, cols, true)
	spmmForward(a, x.Value, val)
	out := x.tape.add(opSpMM, val, x, nil)
	out.sparse = a
	return out
}

// spmmForward computes val += A·x. Output rows are disjoint across
// parallel chunks and each row accumulates its entries in original
// (serial) order, so the result is worker-count independent.
func spmmForward(a *SparseMat, x, val *tensor.Matrix) {
	cols := x.Cols
	if len(a.W)*cols < spmmParallelWork || parallel.Limit() == 1 {
		for k := range a.Dst {
			d, s, w := a.Dst[k], a.Src[k], a.W[k]
			drow := val.Row(int(d))
			srow := x.Row(int(s))
			for j := 0; j < cols; j++ {
				drow[j] += w * srow[j]
			}
		}
		return
	}
	byDst, _ := a.groups()
	parallel.For(context.Background(), 0, a.NumRows, spmmRowGrain, func(_, lo, hi int) {
		for d := lo; d < hi; d++ {
			drow := val.Row(d)
			for _, k := range byDst.perm[byDst.start[d]:byDst.start[d+1]] {
				w := a.W[k]
				srow := x.Row(int(a.Src[k]))
				for j := 0; j < cols; j++ {
					drow[j] += w * srow[j]
				}
			}
		}
	})
}

// spmmBackward computes gx += Aᵀ·grad, parallel over source rows (the
// gradient's scatter targets), mirroring spmmForward's determinism.
func spmmBackward(a *SparseMat, grad, gx *tensor.Matrix) {
	cols := grad.Cols
	if len(a.W)*cols < spmmParallelWork || parallel.Limit() == 1 {
		for k := range a.Dst {
			d, s, w := a.Dst[k], a.Src[k], a.W[k]
			grow := grad.Row(int(d))
			srow := gx.Row(int(s))
			for j := 0; j < cols; j++ {
				srow[j] += w * grow[j]
			}
		}
		return
	}
	_, bySrc := a.groups()
	parallel.For(context.Background(), 0, a.NumCols, spmmRowGrain, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			srow := gx.Row(s)
			for _, k := range bySrc.perm[bySrc.start[s]:bySrc.start[s+1]] {
				w := a.W[k]
				grow := grad.Row(int(a.Dst[k]))
				for j := 0; j < cols; j++ {
					srow[j] += w * grow[j]
				}
			}
		}
	})
}

// GatherRows returns a matrix whose i-th row is x's idx[i]-th row. idx may
// repeat rows; the backward pass scatter-adds into x.
func GatherRows(x *Node, idx []int32) *Node {
	cols := x.Value.Cols
	val := x.tape.take(len(idx), cols, false)
	for i, r := range idx {
		copy(val.Row(i), x.Value.Row(int(r)))
	}
	out := x.tape.add(opGatherRows, val, x, nil)
	out.idx = idx
	return out
}

// ScatterAddRows returns a numOut-row matrix where row idx[i] accumulates
// x's row i. The backward pass gathers.
func ScatterAddRows(x *Node, idx []int32, numOut int) *Node {
	cols := x.Value.Cols
	if len(idx) != x.Value.Rows {
		panic("autodiff: ScatterAddRows idx length mismatch")
	}
	val := x.tape.take(numOut, cols, true)
	for i, r := range idx {
		drow := val.Row(int(r))
		xrow := x.Value.Row(i)
		for j, v := range xrow {
			drow[j] += v
		}
	}
	out := x.tape.add(opScatterAddRows, val, x, nil)
	out.idx = idx
	return out
}

// MulColBroadcast multiplies each row i of x (E×d) by the scalar alpha_i
// (E×1): the attention-weighting step in GAT/GRAT layers.
func MulColBroadcast(x, alpha *Node) *Node {
	t := sameTape("MulColBroadcast", x, alpha)
	if alpha.Value.Cols != 1 || alpha.Value.Rows != x.Value.Rows {
		panic("autodiff: MulColBroadcast alpha must be E×1 matching x rows")
	}
	val := t.take(x.Value.Rows, x.Value.Cols, false)
	for i := 0; i < val.Rows; i++ {
		a := alpha.Value.Data[i]
		xrow := x.Value.Row(i)
		vrow := val.Row(i)
		for j, v := range xrow {
			vrow[j] = a * v
		}
	}
	return t.add(opMulColBroadcast, val, x, alpha)
}

// SegmentSoftmax computes softmax over groups of entries of the E×1 column
// scores: entries sharing seg[i] form one softmax group (attention
// normalization over each node's edge list). numSegments bounds seg values.
func SegmentSoftmax(scores *Node, seg []int32, numSegments int) *Node {
	if scores.Value.Cols != 1 || len(seg) != scores.Value.Rows {
		panic("autodiff: SegmentSoftmax wants E×1 scores with matching seg")
	}
	t := scores.tape
	val := t.take(len(seg), 1, false)
	// Scratch comes from the tape pool so repeated passes on a reset tape
	// don't allocate.
	maxes, sums := t.take(numSegments, 1, false), t.take(numSegments, 1, false)
	segmentSoftmax(val.Data, scores.Value.Data, seg, maxes.Data, sums.Data)
	out := t.add(opSegmentSoftmax, val, scores, nil)
	out.idx = seg
	out.n = numSegments
	return out
}

// segmentSoftmax sets alpha to the softmax of scores within each group
// of entries sharing seg[i], stabilized by subtracting each group's max.
// maxes and sums are per-segment scratch. alpha may alias scores.
func segmentSoftmax(alpha, scores []float64, seg []int32, maxes, sums []float64) {
	for s := range maxes {
		maxes[s] = negInf
		sums[s] = 0
	}
	for i, s := range seg {
		if v := scores[i]; v > maxes[s] {
			maxes[s] = v
		}
	}
	for i, s := range seg {
		ex := exp(scores[i] - maxes[s])
		alpha[i] = ex
		sums[s] += ex
	}
	for i, s := range seg {
		alpha[i] /= sums[s]
	}
}

// segmentSoftmaxGrad adds to gs the gradient through segmentSoftmax given
// its output alpha and output gradient g: per segment,
// gs_i += α_i (g_i − Σ_k α_k g_k). dots is per-segment scratch.
func segmentSoftmaxGrad(gs, alpha, g []float64, seg []int32, dots []float64) {
	for s := range dots {
		dots[s] = 0
	}
	for i, s := range seg {
		dots[s] += alpha[i] * g[i]
	}
	for i, s := range seg {
		gs[i] += alpha[i] * (g[i] - dots[s])
	}
}

var negInf = math.Inf(-1)

// exp clamps its argument to avoid overflow on pathological attention scores.
func exp(x float64) float64 {
	if x > 700 {
		x = 700
	}
	return math.Exp(x)
}
