// Package tensor implements the dense linear-algebra substrate for the
// neural-network stack: row-major float64 matrices with the operations
// needed by GNN forward/backward passes (GEMM, transpose, row gather,
// reductions, stable softmax). GEMM is cache-blocked with a
// register-tiled inner kernel and fans row panels out across the shared
// worker pool (internal/parallel) above a crossover size; because panels
// partition output rows and each row's accumulation order is fixed by
// the kernel, the parallel product is bit-for-bit equal to the serial
// one at any worker count.
package tensor

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"privim/internal/parallel"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: New(%d, %d) negative dims", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice(%d, %d) with %d values", rows, cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero resets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func assertSameShape(op string, a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMul returns a×b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b, false)
	return out
}

// GEMM tuning. gemmKC is the k-dimension cache block (a kc×Cols panel of
// b stays resident in L1/L2 while row pairs stream over it).
// gemmPanelRows is the row granularity of one parallel task, and
// gemmParallelFlops is the crossover below which the fan-out overhead
// outweighs the work and MatMulInto stays serial (the per-sample GNN
// matrices of DP-SGD — tens of rows, 32 columns — all sit below it, so
// training's sample-level parallelism never nests a second fan-out).
const (
	gemmKC            = 128
	gemmPanelRows     = 32
	gemmParallelFlops = 1 << 18
)

// MatMulInto computes out = a×b, or out += a×b when accumulate is true.
// out must be preallocated with shape a.Rows × b.Cols and must not alias a
// or b. Large products are computed in parallel row panels; the result is
// bit-for-bit identical to the serial kernel at any worker count.
func MatMulInto(out, a, b *Matrix, accumulate bool) {
	matMulWorkers(out, a, b, accumulate, 0)
}

// matMulWorkers is MatMulInto with an explicit worker cap (0 = the
// process-wide default); the equivalence tests pin serial vs parallel
// through it.
func matMulWorkers(out, a, b *Matrix, accumulate bool, workers int) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMulInto shape mismatch")
	}
	if !accumulate {
		out.Zero()
	}
	if a.Rows == 0 || a.Cols == 0 || b.Cols == 0 {
		return
	}
	flops := a.Rows * a.Cols * b.Cols
	if workers <= 0 {
		workers = parallel.Resolve(0)
	}
	if workers == 1 || flops < gemmParallelFlops || a.Rows < 2*gemmPanelRows {
		gemmRows(out, a, b, 0, a.Rows)
		return
	}
	panels := (a.Rows + gemmPanelRows - 1) / gemmPanelRows
	parallel.For(context.Background(), workers, panels, 1, func(_, lo, hi int) {
		r0 := lo * gemmPanelRows
		r1 := hi * gemmPanelRows
		if r1 > a.Rows {
			r1 = a.Rows
		}
		gemmRows(out, a, b, r0, r1)
	})
}

// gemmRows accumulates rows [lo, hi) of out += a×b with a cache-blocked,
// register-tiled kernel: k is blocked so a panel of b stays hot, rows are
// processed in pairs sharing each loaded b row, and the inner j loop is
// unrolled 4-wide. Per output element the accumulation order is k
// ascending — independent of blocking, pairing, and the caller's row
// partition — which is what makes the parallel path bit-exact.
func gemmRows(out, a, b *Matrix, lo, hi int) {
	n, cols := a.Cols, b.Cols
	for k0 := 0; k0 < n; k0 += gemmKC {
		k1 := k0 + gemmKC
		if k1 > n {
			k1 = n
		}
		i := lo
		for ; i+1 < hi; i += 2 {
			arow0 := a.Data[i*n : (i+1)*n]
			arow1 := a.Data[(i+1)*n : (i+2)*n]
			orow0 := out.Data[i*cols : (i+1)*cols]
			orow1 := out.Data[(i+1)*cols : (i+2)*cols]
			for k := k0; k < k1; k++ {
				av0, av1 := arow0[k], arow1[k]
				if av0 == 0 && av1 == 0 {
					continue
				}
				brow := b.Data[k*cols : (k+1)*cols]
				j := 0
				for ; j+4 <= cols; j += 4 {
					b0, b1, b2, b3 := brow[j], brow[j+1], brow[j+2], brow[j+3]
					orow0[j] += av0 * b0
					orow0[j+1] += av0 * b1
					orow0[j+2] += av0 * b2
					orow0[j+3] += av0 * b3
					orow1[j] += av1 * b0
					orow1[j+1] += av1 * b1
					orow1[j+2] += av1 * b2
					orow1[j+3] += av1 * b3
				}
				for ; j < cols; j++ {
					bv := brow[j]
					orow0[j] += av0 * bv
					orow1[j] += av1 * bv
				}
			}
		}
		for ; i < hi; i++ {
			arow := a.Data[i*n : (i+1)*n]
			orow := out.Data[i*cols : (i+1)*cols]
			for k := k0; k < k1; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Data[k*cols : (k+1)*cols]
				j := 0
				for ; j+4 <= cols; j += 4 {
					orow[j] += av * brow[j]
					orow[j+1] += av * brow[j+1]
					orow[j+2] += av * brow[j+2]
					orow[j+3] += av * brow[j+3]
				}
				for ; j < cols; j++ {
					orow[j] += av * brow[j]
				}
			}
		}
	}
}

// MatMulNTInto accumulates out += a·bᵀ without materializing the
// transpose: out is a.Rows×b.Rows and the shared dimension is
// a.Cols == b.Cols. Each output element is a dot product of two
// contiguous rows, summed k-ascending from zero and then added to out, so
// the result is deterministic and cache-friendly. Four output columns
// share each pass over a's row, with one accumulator each. Serial by
// design — the backward passes that call it already run one-per-sample
// under the worker pool.
func MatMulNTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: MatMulNTInto shape mismatch")
	}
	// Every row is sliced to the shared length n, which lets the compiler
	// drop the bounds checks in the inner loop.
	n := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		orow := out.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0 := b.Data[j*n : (j+1)*n]
			b1 := b.Data[(j+1)*n : (j+2)*n]
			b2 := b.Data[(j+2)*n : (j+3)*n]
			b3 := b.Data[(j+3)*n : (j+4)*n]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			orow[j] += s0
			orow[j+1] += s1
			orow[j+2] += s2
			orow[j+3] += s3
		}
		for ; j < b.Rows; j++ {
			brow := b.Data[j*n : (j+1)*n]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			orow[j] += s
		}
	}
}

// MatMulTNInto accumulates out += aᵀ·b without materializing the
// transpose: out is a.Cols×b.Cols and the shared dimension is
// a.Rows == b.Rows. Per output element the accumulation order is k
// (shared-row) ascending. The inner loop is unrolled 4-wide like
// gemmRows. Serial by design, like MatMulNTInto.
func MatMulTNInto(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic("tensor: MatMulTNInto shape mismatch")
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Row(i)[:len(brow)] // the re-slice drops bounds checks
			j := 0
			for ; j+4 <= len(brow); j += 4 {
				orow[j] += av * brow[j]
				orow[j+1] += av * brow[j+1]
				orow[j+2] += av * brow[j+2]
				orow[j+3] += av * brow[j+3]
			}
			for ; j < len(brow); j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// AXPY computes dst += s·src in place.
func AXPY(dst *Matrix, s float64, src *Matrix) {
	assertSameShape("AXPY", dst, src)
	for i, v := range src.Data {
		dst.Data[i] += s * v
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Norm2 returns the Frobenius (l2) norm.
func (m *Matrix) Norm2() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns max_i |m_i|.
func (m *Matrix) MaxAbs() float64 {
	best := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// LogSumExp returns log Σ exp(x_i) computed stably.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	max := math.Inf(-1)
	for _, v := range xs {
		if v > max {
			max = v
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	sum := 0.0
	for _, v := range xs {
		sum += math.Exp(v - max)
	}
	return max + math.Log(sum)
}

// RandNormal fills m with N(0, std²) values from rng.
func (m *Matrix) RandNormal(std float64, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// RandUniform fills m with Uniform(-a, a) values from rng.
func (m *Matrix) RandUniform(a float64, rng *rand.Rand) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * a
	}
}

// Equal reports elementwise equality within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d, ‖·‖=%.4g)", m.Rows, m.Cols, m.Norm2())
	}
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
