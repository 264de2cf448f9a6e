package autodiff

import (
	"math"
	"testing"

	"privim/internal/graph"
	"privim/internal/tensor"
)

func chainGraph() *graph.Graph {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	b.AddEdge(0, 2, 1)
	return b.Build()
}

func TestInAdjacency(t *testing.T) {
	g := chainGraph()
	a := InAdjacency(g)
	// y = A·x with x = identity-ish column vector picks up in-weights.
	tp := NewTape()
	x := tp.Leaf(tensor.FromSlice(3, 1, []float64{1, 1, 1}))
	y := SpMM(a, x)
	// Node 0 has no in-arcs; node 1 gets 0.5 from node 0; node 2 gets 0.25+1.
	want := []float64{0, 0.5, 1.25}
	for i, w := range want {
		if math.Abs(y.Value.Data[i]-w) > 1e-12 {
			t.Fatalf("InAdjacency aggregate[%d] = %v, want %v", i, y.Value.Data[i], w)
		}
	}
}

func TestGCNNormalized(t *testing.T) {
	g := chainGraph()
	a := GCNNormalized(g)
	// Row sums of Â on a constant vector stay bounded by ~1 and are strictly
	// positive thanks to self loops.
	tp := NewTape()
	x := tp.Leaf(tensor.FromSlice(3, 1, []float64{1, 1, 1}))
	y := SpMM(a, x)
	for i := 0; i < 3; i++ {
		v := y.Value.Data[i]
		if v <= 0 || v > 1.5 {
			t.Fatalf("GCN-normalized aggregate[%d] = %v outside (0, 1.5]", i, v)
		}
	}
	// Self-loop weight for node 0 (d̂=1): 1/1 = 1 contribution present.
	found := false
	for k := range a.Dst {
		if a.Dst[k] == 0 && a.Src[k] == 0 {
			found = true
			if a.W[k] != 1 {
				t.Fatalf("self-loop weight %v, want 1 for degree-1 node", a.W[k])
			}
		}
	}
	if !found {
		t.Fatal("missing self loop for node 0")
	}
}

func TestSpMMShapePanic(t *testing.T) {
	sp := NewSparse(2, 2, []int32{0}, []int32{1}, []float64{1})
	tp := NewTape()
	x := tp.Leaf(tensor.New(3, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	SpMM(sp, x)
}

func TestSegmentSoftmaxNormalizes(t *testing.T) {
	tp := NewTape()
	scores := tp.Leaf(tensor.FromSlice(5, 1, []float64{1, 2, 3, -1, 1000}))
	seg := []int32{0, 0, 0, 1, 1}
	a := SegmentSoftmax(scores, seg, 2)
	s0 := a.Value.Data[0] + a.Value.Data[1] + a.Value.Data[2]
	s1 := a.Value.Data[3] + a.Value.Data[4]
	if math.Abs(s0-1) > 1e-12 || math.Abs(s1-1) > 1e-12 {
		t.Fatalf("segment sums %v, %v want 1", s0, s1)
	}
	// Large score must dominate without NaN.
	if a.Value.Data[4] < 0.999 || math.IsNaN(a.Value.Data[4]) {
		t.Fatalf("stability: alpha[4] = %v", a.Value.Data[4])
	}
}
