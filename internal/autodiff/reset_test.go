package autodiff

import (
	"testing"

	"privim/internal/tensor"
)

// pass runs a small multi-op forward/backward on tp and returns the loss
// value and the gradient of w.
func pass(tp *Tape, wMat, xMat *tensor.Matrix, adj *SparseMat) (float64, []float64) {
	w := tp.Leaf(wMat)
	x := tp.Leaf(xMat)
	h := MatMul(x, w)
	h = ReLU(AddScalar(h, 0.1))
	h = SpMM(adj, h)
	h = Attention(h, []*Node{tp.Leaf(attnHead(0)), tp.Leaf(attnHead(1))}, adj.Dst, adj.Src, adj.Src, 0.2)
	s := Sigmoid(h)
	loss := Sum(Mul(s, OneMinus(s)))
	tp.Backward(loss)
	grad := make([]float64, len(w.Grad.Data))
	copy(grad, w.Grad.Data)
	return loss.Value.Data[0], grad
}

// attnHead returns a fixed 4×1 attention vector for the 2-column hidden
// matrices of testOperands.
func attnHead(h int) *tensor.Matrix {
	a := tensor.New(4, 1)
	for i := range a.Data {
		a.Data[i] = 0.2*float64(i+h) - 0.3
	}
	return a
}

func testOperands() (*tensor.Matrix, *tensor.Matrix, *SparseMat) {
	wMat := tensor.New(3, 2)
	xMat := tensor.New(4, 3)
	for i := range wMat.Data {
		wMat.Data[i] = 0.3*float64(i) - 0.5
	}
	for i := range xMat.Data {
		xMat.Data[i] = 0.1*float64(i) - 0.4
	}
	adj := NewSparse(4, 4,
		[]int32{0, 1, 2, 3, 0},
		[]int32{1, 2, 3, 0, 2},
		[]float64{0.5, 0.25, 1, 0.75, 0.1})
	return wMat, xMat, adj
}

func TestTapeResetReusesBitIdentically(t *testing.T) {
	wMat, xMat, adj := testOperands()

	fresh := NewTape()
	wantLoss, wantGrad := pass(fresh, wMat, xMat, adj)

	reused := NewTape()
	for rep := 0; rep < 5; rep++ {
		reused.Reset()
		loss, grad := pass(reused, wMat, xMat, adj)
		if loss != wantLoss {
			t.Fatalf("rep %d: loss %v != fresh-tape loss %v", rep, loss, wantLoss)
		}
		for i := range grad {
			if grad[i] != wantGrad[i] {
				t.Fatalf("rep %d: grad[%d] = %v, want %v", rep, i, grad[i], wantGrad[i])
			}
		}
	}
}

func TestTapeResetSteadyStateZeroAlloc(t *testing.T) {
	wMat, xMat, adj := testOperands()
	a0, a1 := attnHead(0), attnHead(1)
	var heads [2]*Node // reused so the pass itself builds no slice
	cases := map[string]func(tp *Tape){
		"spmm": func(tp *Tape) {
			w := tp.Leaf(wMat)
			x := tp.Leaf(xMat)
			h := SpMM(adj, ReLU(MatMul(x, w)))
			tp.Backward(Sum(Sigmoid(h)))
		},
		"attention": func(tp *Tape) {
			w := tp.Leaf(wMat)
			x := tp.Leaf(xMat)
			heads[0], heads[1] = tp.Leaf(a0), tp.Leaf(a1)
			h := Attention(MatMul(x, w), heads[:], adj.Dst, adj.Src, adj.Src, 0.2)
			tp.Backward(Sum(Sigmoid(ReLU(h))))
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			tp := NewTape()
			// Warm up: first pass grows the node arena and matrix pool. Two
			// passes because Backward takes gradient + scratch buffers
			// beyond the forward footprint.
			for i := 0; i < 2; i++ {
				tp.Reset()
				run(tp)
			}
			allocs := testing.AllocsPerRun(50, func() {
				tp.Reset()
				run(tp)
			})
			if allocs != 0 {
				t.Fatalf("steady-state forward/backward on a reset tape allocates %.1f/op, want 0", allocs)
			}
		})
	}
}
