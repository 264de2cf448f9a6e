package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = 9 // Row is a view
	if m.At(1, 0) != 9 {
		t.Fatal("Row must share storage")
	}
}

func TestFromSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulInto_Accumulate(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(2, 1, []float64{3, 4})
	out := FromSlice(1, 1, []float64{100})
	MatMulInto(out, a, b, true)
	if out.At(0, 0) != 111 {
		t.Fatalf("accumulate got %v, want 111", out.At(0, 0))
	}
	MatMulInto(out, a, b, false)
	if out.At(0, 0) != 11 {
		t.Fatalf("overwrite got %v, want 11", out.At(0, 0))
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// Property: (AB)ᵀ == BᵀAᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	transpose := func(m *Matrix) *Matrix {
		t := New(m.Cols, m.Rows)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
			}
		}
		return t
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(4, 5), New(5, 3)
		a.RandNormal(1, rng)
		b.RandNormal(1, rng)
		lhs := transpose(MatMul(a, b))
		rhs := MatMul(transpose(b), transpose(a))
		return Equal(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAXPY(t *testing.T) {
	dst := FromSlice(1, 3, []float64{1, 1, 1})
	src := FromSlice(1, 3, []float64{1, 2, 3})
	AXPY(dst, 0.5, src)
	if !Equal(dst, FromSlice(1, 3, []float64{1.5, 2, 2.5}), 1e-15) {
		t.Fatalf("AXPY = %v", dst)
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 2, []float64{3, -4, 0, 0})
	if m.Sum() != -1 {
		t.Fatalf("Sum = %v", m.Sum())
	}
	if m.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", m.Norm2())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp([]float64{0, 0}); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("LogSumExp([0,0]) = %v, want log 2", got)
	}
	// Huge values must not overflow.
	if got := LogSumExp([]float64{1e6, 1e6}); math.Abs(got-(1e6+math.Log(2))) > 1e-6 {
		t.Fatalf("LogSumExp stability: %v", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Fatalf("LogSumExp(nil) = %v, want -Inf", got)
	}
	if got := LogSumExp([]float64{math.Inf(-1)}); !math.IsInf(got, -1) {
		t.Fatalf("LogSumExp([-Inf]) = %v, want -Inf", got)
	}
}

func TestZeroFillClone(t *testing.T) {
	m := New(2, 2)
	m.Fill(7)
	c := m.Clone()
	m.Zero()
	if m.Sum() != 0 {
		t.Fatal("Zero failed")
	}
	if c.Sum() != 28 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestRandFills(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(10, 10)
	m.RandNormal(1, rng)
	if m.Norm2() == 0 {
		t.Fatal("RandNormal produced all zeros")
	}
	u := New(10, 10)
	u.RandUniform(0.5, rng)
	if u.MaxAbs() > 0.5 {
		t.Fatalf("RandUniform exceeded bound: %v", u.MaxAbs())
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

func TestString(t *testing.T) {
	small := FromSlice(1, 2, []float64{1, 2})
	if small.String() == "" {
		t.Fatal("empty String for small matrix")
	}
	big := New(100, 100)
	if big.String() == "" {
		t.Fatal("empty String for big matrix")
	}
}
