package autodiff

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privim/internal/tensor"
)

// checkGrad verifies analytical gradients against central finite differences
// for a scalar-valued function of the listed input matrices. build must
// construct the computation from fresh leaves each call.
func checkGrad(t *testing.T, name string, inputs []*tensor.Matrix, build func(tp *Tape, leaves []*Node) *Node) {
	t.Helper()
	const eps = 1e-6
	const tol = 1e-4

	// Analytical pass.
	tp := NewTape()
	leaves := make([]*Node, len(inputs))
	for i, m := range inputs {
		leaves[i] = tp.Leaf(m.Clone())
	}
	out := build(tp, leaves)
	tp.Backward(out)

	eval := func() float64 {
		tp2 := NewTape()
		l2 := make([]*Node, len(inputs))
		for i, m := range inputs {
			l2[i] = tp2.Leaf(m.Clone())
		}
		return build(tp2, l2).Value.Data[0]
	}

	for i, m := range inputs {
		if leaves[i].Grad == nil {
			t.Fatalf("%s: input %d received no gradient", name, i)
		}
		for k := range m.Data {
			orig := m.Data[k]
			m.Data[k] = orig + eps
			fp := eval()
			m.Data[k] = orig - eps
			fm := eval()
			m.Data[k] = orig
			numeric := (fp - fm) / (2 * eps)
			analytic := leaves[i].Grad.Data[k]
			if diff := math.Abs(numeric - analytic); diff > tol*(1+math.Abs(numeric)) {
				t.Errorf("%s: input %d elem %d: analytic %v vs numeric %v", name, i, k, analytic, numeric)
			}
		}
	}
}

func randMat(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.New(rows, cols)
	m.RandNormal(1, rng)
	return m
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkGrad(t, "MatMul", []*tensor.Matrix{randMat(3, 4, rng), randMat(4, 2, rng)},
		func(tp *Tape, l []*Node) *Node { return Sum(MatMul(l[0], l[1])) })
}

func TestGradAddSubMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(2, 3, rng), randMat(2, 3, rng)
	checkGrad(t, "Add", []*tensor.Matrix{a, b},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(Add(l[0], l[1]), l[1])) })
}

func TestGradScaleAddScalarOneMinus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(2, 2, rng)
	checkGrad(t, "Scale", []*tensor.Matrix{a},
		func(tp *Tape, l []*Node) *Node { return Sum(Scale(Mul(l[0], l[0]), 2.5)) })
	checkGrad(t, "AddScalar", []*tensor.Matrix{a},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(AddScalar(l[0], 3), l[0])) })
	checkGrad(t, "OneMinus", []*tensor.Matrix{a},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(OneMinus(l[0]), OneMinus(l[0]))) })
}

func TestGradRowBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checkGrad(t, "AddRowBroadcast", []*tensor.Matrix{randMat(3, 2, rng), randMat(1, 2, rng)},
		func(tp *Tape, l []*Node) *Node {
			return Sum(Mul(AddRowBroadcast(l[0], l[1]), AddRowBroadcast(l[0], l[1])))
		})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Shift away from the ReLU kink to keep finite differences valid.
	a := randMat(3, 3, rng)
	for i := range a.Data {
		if math.Abs(a.Data[i]) < 0.05 {
			a.Data[i] = 0.1
		}
	}
	checkGrad(t, "ReLU", []*tensor.Matrix{a},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(ReLU(l[0]), l[0])) })
	checkGrad(t, "LeakyReLU", []*tensor.Matrix{a},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(LeakyReLU(l[0], 0.2), l[0])) })
	checkGrad(t, "Sigmoid", []*tensor.Matrix{a},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(Sigmoid(l[0]), l[0])) })
	checkGrad(t, "Tanh", []*tensor.Matrix{a},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(Tanh(l[0]), l[0])) })
}

func TestGradExpLog(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(2, 3, rng)
	checkGrad(t, "Exp", []*tensor.Matrix{a},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(Exp(l[0]), l[0])) })
	// Log needs strictly positive inputs away from the clamp floor.
	pos := randMat(2, 3, rng)
	for i := range pos.Data {
		pos.Data[i] = math.Abs(pos.Data[i]) + 0.5
	}
	checkGrad(t, "Log", []*tensor.Matrix{pos},
		func(tp *Tape, l []*Node) *Node { return Sum(Mul(Log(l[0]), l[0])) })
}

func TestLogClampsAtFloor(t *testing.T) {
	tp := NewTape()
	x := tp.Leaf(tensor.FromSlice(1, 2, []float64{0, -5}))
	out := Sum(Log(x))
	tp.Backward(out)
	if math.IsInf(out.Value.Data[0], 0) || math.IsNaN(out.Value.Data[0]) {
		t.Fatalf("Log at 0 produced %v", out.Value.Data[0])
	}
	for i, g := range x.Grad.Data {
		if g != 0 {
			t.Fatalf("grad[%d] = %v below floor, want 0", i, g)
		}
	}
}

func TestGradConcatCols(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkGrad(t, "ConcatCols", []*tensor.Matrix{randMat(3, 2, rng), randMat(3, 4, rng)},
		func(tp *Tape, l []*Node) *Node {
			c := ConcatCols(l[0], l[1])
			return Sum(Mul(c, c))
		})
}

func TestGradSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sp := NewSparse(3, 4,
		[]int32{0, 0, 1, 2, 2},
		[]int32{1, 3, 0, 2, 3},
		[]float64{0.5, 1.5, -1, 2, 0.25})
	checkGrad(t, "SpMM", []*tensor.Matrix{randMat(4, 3, rng)},
		func(tp *Tape, l []*Node) *Node {
			y := SpMM(sp, l[0])
			return Sum(Mul(y, y))
		})
}

func TestGradGatherScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := []int32{2, 0, 2, 1}
	checkGrad(t, "GatherRows", []*tensor.Matrix{randMat(3, 2, rng)},
		func(tp *Tape, l []*Node) *Node {
			g := GatherRows(l[0], idx)
			return Sum(Mul(g, g))
		})
	checkGrad(t, "ScatterAddRows", []*tensor.Matrix{randMat(4, 2, rng)},
		func(tp *Tape, l []*Node) *Node {
			s := ScatterAddRows(l[0], idx, 3)
			return Sum(Mul(s, s))
		})
}

func TestGradMulColBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	checkGrad(t, "MulColBroadcast", []*tensor.Matrix{randMat(4, 3, rng), randMat(4, 1, rng)},
		func(tp *Tape, l []*Node) *Node {
			y := MulColBroadcast(l[0], l[1])
			return Sum(Mul(y, y))
		})
}

func TestGradSegmentSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seg := []int32{0, 0, 1, 1, 1, 2}
	checkGrad(t, "SegmentSoftmax", []*tensor.Matrix{randMat(6, 1, rng), randMat(6, 1, rng)},
		func(tp *Tape, l []*Node) *Node {
			a := SegmentSoftmax(l[0], seg, 3)
			return Sum(Mul(a, l[1]))
		})
}

func TestGradComposite_GATStyle(t *testing.T) {
	// End-to-end: a miniature attention layer exercising gather, concat,
	// leaky relu, segment softmax, weighting, and scatter in one graph.
	rng := rand.New(rand.NewSource(12))
	dst := []int32{0, 0, 1, 2, 2, 2}
	src := []int32{1, 2, 0, 0, 1, 2}
	x := randMat(3, 2, rng)
	attn := randMat(4, 1, rng) // attention vector over concat dims
	checkGrad(t, "GATStyle", []*tensor.Matrix{x, attn},
		func(tp *Tape, l []*Node) *Node {
			hd := GatherRows(l[0], dst)
			hs := GatherRows(l[0], src)
			cat := ConcatCols(hd, hs)       // E×4
			scores := MatMul(cat, l[1])     // E×1
			scores = LeakyReLU(scores, 0.2) //
			alpha := SegmentSoftmax(scores, dst, 3)
			msg := MulColBroadcast(hs, alpha)  // E×2
			agg := ScatterAddRows(msg, dst, 3) // 3×2
			return Sum(Mul(agg, agg))
		})
}

func TestGradAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// Arcs src→dst with a parallel pair (1→0 twice), a node (3) reached
	// only by its self-loop, and a self-loop on every node.
	dst := []int32{0, 0, 0, 1, 2, 2, 0, 1, 2, 3}
	src := []int32{1, 1, 2, 0, 0, 1, 0, 1, 2, 3}
	for _, heads := range []int{1, 3} {
		for _, seg := range [][]int32{dst, src} {
			inputs := []*tensor.Matrix{randMat(4, 2, rng)}
			for h := 0; h < heads; h++ {
				inputs = append(inputs, randMat(4, 1, rng))
			}
			checkGrad(t, fmt.Sprintf("Attention/heads%d/seg%v", heads, seg), inputs,
				func(tp *Tape, l []*Node) *Node {
					y := Attention(l[0], l[1:], dst, src, seg, 0.2)
					return Sum(Mul(y, y))
				})
		}
	}
}

func TestBackwardPanics(t *testing.T) {
	tp := NewTape()
	m := tp.Leaf(tensor.New(2, 2))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-scalar Backward")
			}
		}()
		tp.Backward(m)
	}()

	tp2 := NewTape()
	s := Sum(tp2.Leaf(tensor.New(1, 1)))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for cross-tape Backward")
			}
		}()
		tp.Backward(s)
	}()
}

func TestMixedTapesPanic(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	a := t1.Leaf(tensor.New(1, 1))
	b := t2.Leaf(tensor.New(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic mixing tapes")
		}
	}()
	Add(a, b)
}

func TestGradAccumulatesOverReuse(t *testing.T) {
	// y = x + x ⇒ dy/dx = 2 for every element.
	tp := NewTape()
	x := tp.Leaf(tensor.FromSlice(1, 2, []float64{3, 4}))
	out := Sum(Add(x, x))
	tp.Backward(out)
	for i, g := range x.Grad.Data {
		if g != 2 {
			t.Fatalf("grad[%d] = %v, want 2 (reuse must accumulate)", i, g)
		}
	}
}

func TestSparseConstructors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range sparse entry")
		}
	}()
	NewSparse(2, 2, []int32{5}, []int32{0}, []float64{1})
}

func TestTapeLen(t *testing.T) {
	tp := NewTape()
	a := tp.Leaf(tensor.New(1, 1))
	_ = Sigmoid(a)
	if tp.Len() != 2 {
		t.Fatalf("tape len = %d, want 2", tp.Len())
	}
}
