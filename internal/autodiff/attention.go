package autodiff

import (
	"fmt"

	"privim/internal/tensor"
)

// attnState is an Attention node's payload beyond its Node fields (x is
// wh, scalar the LeakyReLU slope): the attention vectors, the edge list,
// and the per-edge forward state the backward pass reads. It is
// tape-owned like the node arena and recycled by Reset, so recording
// Attention on a reused tape allocates nothing.
type attnState struct {
	heads         []*Node
	dst, src, seg []int32
	score, alpha  *tensor.Matrix // H×E: pre-LeakyReLU scores, softmax weights
}

func (t *Tape) newAttn() *attnState {
	if t.nattn == len(t.attns) {
		t.attns = append(t.attns, new(attnState))
	}
	st := t.attns[t.nattn]
	t.nattn++
	return st
}

// Attention computes one graph-attention layer over the projected node
// matrix wh (n×F) and the edges src[i] → dst[i] (node indices in [0, n)),
// with one 2F×1 attention vector a_h per head:
//
//	e_hi  = LeakyReLU(a_hᵀ [wh_dst[i] | wh_src[i]])
//	α_hi  = softmax of e_h over the edges sharing seg[i]
//	out_u = (1/H) Σ_h Σ_{i: dst[i]=u} α_hi · wh_src[i]
//
// seg picks the normalization: dst gives GAT's per-destination softmax,
// src GRAT's per-source one. The op is the chain GatherRows(wh, dst),
// GatherRows(wh, src), ConcatCols, then per head MatMul, LeakyReLU,
// SegmentSoftmax, MulColBroadcast and ScatterAddRows, with heads joined
// by Add and Scale — fused: forward values and gradients are
// bit-identical to that chain's, but no E×F matrix is built. Per-edge
// state is H×E and tape-owned. heads, dst, src and seg are used by
// reference and must not change while the tape is live.
func Attention(wh *Node, heads []*Node, dst, src, seg []int32, slope float64) *Node {
	t := wh.tape
	n, f := wh.Value.Rows, wh.Value.Cols
	if len(heads) == 0 || len(src) != len(dst) || len(seg) != len(dst) {
		panic(fmt.Sprintf("autodiff: Attention with %d heads, %d dst, %d src, %d seg",
			len(heads), len(dst), len(src), len(seg)))
	}
	for _, a := range heads {
		if a.tape != t {
			panic("autodiff: Attention mixes tapes")
		}
		if a.Value.Rows != 2*f || a.Value.Cols != 1 {
			panic(fmt.Sprintf("autodiff: Attention head %dx%d for %d features, want %dx1",
				a.Value.Rows, a.Value.Cols, f, 2*f))
		}
	}
	st := t.newAttn()
	st.heads, st.dst, st.src, st.seg = heads, dst, src, seg
	st.score = t.take(len(heads), len(dst), false)
	st.alpha = t.take(len(heads), len(dst), false)
	pre := t.take(n, 1, false)
	maxes, sums := t.take(n, 1, false), t.take(n, 1, false)
	val := t.take(n, f, true)
	var headAgg *tensor.Matrix // heads after the first sum apart, as the chain did
	if len(heads) > 1 {
		headAgg = t.take(n, f, false)
	}
	for h, a := range heads {
		score, alpha := st.score.Row(h), st.alpha.Row(h)
		attnScores(score, wh.Value, a.Value.Data, dst, src, pre.Data)
		for i, e := range score {
			if e > 0 {
				alpha[i] = e
			} else {
				alpha[i] = slope * e
			}
		}
		segmentSoftmax(alpha, alpha, seg, maxes.Data, sums.Data)
		agg := val
		if h > 0 {
			agg = headAgg
			agg.Zero()
		}
		for i, d := range dst {
			w := alpha[i]
			arow, srow := agg.Row(int(d)), wh.Value.Row(int(src[i]))
			for j, v := range srow {
				// The chain stored α·wh as a message before scattering it;
				// the conversion keeps that rounding (no fused multiply-add).
				arow[j] += float64(w * v)
			}
		}
		if h > 0 {
			for j, v := range agg.Data {
				val.Data[j] += v
			}
		}
	}
	if len(heads) > 1 {
		s := 1 / float64(len(heads))
		for j, v := range val.Data {
			val.Data[j] = s * v
		}
	}
	out := t.add(opAttention, val, wh, nil)
	out.scalar = slope
	out.attn = st
	return out
}

// attnScores sets score[i] = aᵀ [wh_dst[i] | wh_src[i]], summed
// k-ascending from zero like the chain's GEMM. The destination half of
// every sum is a per-node prefix, so it is computed once per node into
// pre and each edge continues from it.
func attnScores(score []float64, wh *tensor.Matrix, a []float64, dst, src []int32, pre []float64) {
	f := wh.Cols
	ad, as := a[:f], a[f:]
	for d := range pre {
		s := 0.0
		for k, v := range wh.Row(d) {
			s += v * ad[k]
		}
		pre[d] = s
	}
	for i, d := range dst {
		s := pre[d]
		for k, v := range wh.Row(int(src[i])) {
			s += v * as[k]
		}
		score[i] = s
	}
}

// attentionBackward is opAttention's backward rule. Every gradient
// element sums its terms in the order the unfused chain's backward did,
// which is what keeps the two bit-identical.
func attentionBackward(n *Node) {
	st, t := n.attn, n.tape
	wh := n.x.Value
	numH, numE, f := len(st.heads), len(st.dst), wh.Cols
	// The chain's Scale backward hands every head (1/H)·G.
	gout := n.Grad
	if numH > 1 {
		gout = t.take(n.Grad.Rows, f, false)
		s := 1 / float64(numH)
		for j, g := range n.Grad.Data {
			gout.Data[j] = s * g
		}
	}
	ge := t.take(numH, numE, true) // ∂/∂score per head and edge
	galpha := t.take(1, numE, false)
	dots := t.take(wh.Rows, 1, false)
	for h, a := range st.heads {
		alpha, score, g := st.alpha.Row(h), st.score.Row(h), ge.Row(h)
		for i, d := range st.dst {
			grow, srow := gout.Row(int(d)), wh.Row(int(st.src[i]))
			dot := 0.0
			for j, gv := range grow {
				dot += gv * srow[j]
			}
			galpha.Data[i] = dot
		}
		segmentSoftmaxGrad(g, alpha, galpha.Data, st.seg, dots.Data)
		for i, e := range score {
			if !(e > 0) {
				g[i] *= n.scalar
			}
		}
		// ∂/∂a_h = Σ_i ge_i [wh_dst[i] | wh_src[i]], edge-ascending and
		// skipping zero features like MatMulTNInto.
		ga := a.grad().Data
		gd, gs := ga[:f], ga[f:]
		for i, d := range st.dst {
			gi := g[i]
			for k, v := range wh.Row(int(d)) {
				if v != 0 {
					gd[k] += v * gi
				}
			}
			for k, v := range wh.Row(int(st.src[i])) {
				if v != 0 {
					gs[k] += v * gi
				}
			}
		}
	}
	// ∂/∂wh: the chain gathered wh_src after wh_dst, so the source side
	// lands first. Per element the message terms add in reverse head order,
	// then the score term (the chain's ConcatCols share), whose per-head
	// products the chain rounded before summing. acc and c hold one edge's
	// two sums.
	gwh := n.x.grad()
	sums := t.take(1, 2*f, false).Data
	acc, c := sums[:f], sums[f:]
	for i, d := range st.dst {
		grow := gout.Row(int(d))
		clear(acc)
		clear(c)
		for h := numH - 1; h >= 0; h-- {
			w, e := st.alpha.Data[h*numE+i], ge.Data[h*numE+i]
			as := st.heads[h].Value.Data[f:]
			for j, g := range grow {
				acc[j] += w * g
				c[j] += float64(e * as[j])
			}
		}
		out := gwh.Row(int(st.src[i]))
		for j, v := range acc {
			out[j] += v + c[j]
		}
	}
	for i, d := range st.dst {
		clear(c)
		for h := numH - 1; h >= 0; h-- {
			e := ge.Data[h*numE+i]
			for j, a := range st.heads[h].Value.Data[:f] {
				c[j] += float64(e * a)
			}
		}
		out := gwh.Row(int(d))
		for j, v := range c {
			out[j] += v
		}
	}
}
