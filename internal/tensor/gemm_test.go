package tensor

import (
	"math"
	"math/rand"
	"testing"

	"privim/internal/parallel"
)

func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// Sprinkle exact zeros so the kernel's zero-skip paths run.
	for i := 0; i < len(m.Data); i += 7 {
		m.Data[i] = 0
	}
	return m
}

// naiveMatMul is the straightforward ikj triple loop with k-ascending
// accumulation per element — the reference order the blocked kernel must
// reproduce exactly.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Data[i*a.Cols+k]
			if av == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.Data[k*b.Cols+j]
			}
		}
	}
	return out
}

// TestTransposedKernelsMatchNaiveOrder pins MatMulNTInto and MatMulTNInto
// bit for bit to naive triple loops summing in the same order, on a warm
// output, for output widths around the NT kernel's four-column step.
func TestTransposedKernelsMatchNaiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cols := range []int{1, 3, 4, 5, 37} {
		for _, shared := range []int{1, 6, 33} {
			const rows = 7
			// NT: out (rows×cols) += a (rows×shared) · b (cols×shared)ᵀ.
			a, b := randMat(rows, shared, rng), randMat(cols, shared, rng)
			want, got := randMat(rows, cols, rng), New(rows, cols)
			copy(got.Data, want.Data)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					s := 0.0
					for k := 0; k < shared; k++ {
						s += a.Data[i*shared+k] * b.Data[j*shared+k]
					}
					want.Data[i*cols+j] += s
				}
			}
			MatMulNTInto(got, a, b)
			for i := range want.Data {
				if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
					t.Fatalf("NT cols %d shared %d: element %d: %v != naive %v", cols, shared, i, got.Data[i], want.Data[i])
				}
			}

			// TN: out (rows×cols) += a (shared×rows)ᵀ · b (shared×cols).
			a, b = randMat(shared, rows, rng), randMat(shared, cols, rng)
			want, got = randMat(rows, cols, rng), New(rows, cols)
			copy(got.Data, want.Data)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					for k := 0; k < shared; k++ {
						if av := a.Data[k*rows+i]; av != 0 {
							want.Data[i*cols+j] += av * b.Data[k*cols+j]
						}
					}
				}
			}
			MatMulTNInto(got, a, b)
			for i := range want.Data {
				if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
					t.Fatalf("TN cols %d shared %d: element %d: %v != naive %v", cols, shared, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestGEMMBlockedMatchesNaiveOrder pins that the blocked, register-tiled
// kernel accumulates each output element in k-ascending order, i.e. is
// bit-for-bit equal to the naive loop.
func TestGEMMBlockedMatchesNaiveOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {33, 200, 17}, {65, 300, 31}, {128, 64, 128}} {
		a := randMat(dims[0], dims[1], rng)
		b := randMat(dims[1], dims[2], rng)
		want := naiveMatMul(a, b)
		got := New(dims[0], dims[2])
		gemmRows(got, a, b, 0, dims[0])
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("dims %v: element %d: blocked %v != naive %v", dims, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestGEMMParallelBitExact is the tentpole determinism guarantee: the
// parallel product equals the serial product exactly (float64 identity,
// not tolerance) at every worker count, including odd row counts that
// leave a trailing unpaired row and accumulate mode.
func TestGEMMParallelBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{64, 64, 64}, {65, 128, 33}, {256, 100, 64}, {97, 97, 97}} {
		a := randMat(dims[0], dims[1], rng)
		b := randMat(dims[1], dims[2], rng)
		serial := New(dims[0], dims[2])
		matMulWorkers(serial, a, b, false, 1)
		for _, workers := range []int{2, 3, 8} {
			par := New(dims[0], dims[2])
			par.Fill(3.25) // ensure the non-accumulate path really zeroes
			matMulWorkers(par, a, b, false, workers)
			for i := range serial.Data {
				if serial.Data[i] != par.Data[i] {
					t.Fatalf("dims %v workers %d: element %d: %v != %v",
						dims, workers, i, par.Data[i], serial.Data[i])
				}
			}
			// Accumulate mode on a warm output.
			accS, accP := serial.Clone(), serial.Clone()
			matMulWorkers(accS, a, b, true, 1)
			matMulWorkers(accP, a, b, true, workers)
			for i := range accS.Data {
				if accS.Data[i] != accP.Data[i] {
					t.Fatalf("dims %v workers %d accumulate: element %d differs", dims, workers, i)
				}
			}
		}
	}
}

// TestGEMMSmallStaysCorrect covers the sub-crossover serial fall-through
// used by the per-sample GNN passes.
func TestGEMMSmallStaysCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(4, 6, rng)
	b := randMat(6, 3, rng)
	got := MatMul(a, b)
	want := naiveMatMul(a, b)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %v != %v", i, got.Data[i], want.Data[i])
		}
	}
}

func BenchmarkGEMM256(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := randMat(256, 256, rng)
	y := randMat(256, 256, rng)
	out := New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y, false)
	}
}

// TestGEMMSteadyStateAllocs pins a 256×256 product's allocations at each
// pool width: none serially, and at width w at most parallel.For's
// 3 + 2w plus the panel closure.
func TestGEMMSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randMat(256, 256, rng)
	y := randMat(256, 256, rng)
	out := New(256, 256)
	defer parallel.SetLimit(parallel.Limit())
	for _, w := range []int{1, 2, 4, 8} {
		parallel.SetLimit(w)
		got := testing.AllocsPerRun(3, func() { MatMulInto(out, x, y, false) })
		want := 0
		if w > 1 {
			want = 4 + 2*w
		}
		if got > float64(want) {
			t.Errorf("MatMulInto 256×256 at width %d allocates %v objects/op, want <= %d", w, got, want)
		}
	}
}
