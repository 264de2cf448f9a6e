package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privim/internal/autodiff"
	"privim/internal/tensor"
)

func TestParamSetBasics(t *testing.T) {
	ps := NewParamSet()
	w := ps.Add("w", 2, 3)
	b := ps.Add("b", 1, 3)
	if ps.NumParams() != 9 {
		t.Fatalf("NumParams = %d, want 9", ps.NumParams())
	}
	if ps.Get("w") != w || ps.Get("b") != b || ps.Get("zzz") != nil {
		t.Fatal("Get lookup wrong")
	}
	if got := ps.All(); len(got) != 2 || got[0] != w {
		t.Fatal("All order wrong")
	}
}

func TestParamSetDuplicatePanics(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	ps.Add("w", 2, 2)
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ps := NewParamSet()
	ps.Add("w", 50, 50)
	ps.GlorotInit(rng)
	bound := math.Sqrt(6.0 / 100)
	if got := ps.Get("w").Value.MaxAbs(); got > bound || got == 0 {
		t.Fatalf("Glorot max |w| = %v, bound %v", got, bound)
	}
}

func TestGradsClip(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", 1, 2)
	g := NewGrads(ps)
	g.Mats()[0].Data[0] = 3
	g.Mats()[0].Data[1] = 4
	pre := g.ClipL2(1)
	if pre != 5 {
		t.Fatalf("pre-clip norm %v, want 5", pre)
	}
	if n := g.Norm2(); math.Abs(n-1) > 1e-12 {
		t.Fatalf("post-clip norm %v, want 1", n)
	}
	// Clipping below the bound is a no-op.
	pre2 := g.ClipL2(10)
	if math.Abs(pre2-1) > 1e-12 || math.Abs(g.Norm2()-1) > 1e-12 {
		t.Fatal("clip below bound must not rescale")
	}
}

// Property: after ClipL2(c), the norm never exceeds c (the DP-SGD invariant).
func TestClipProperty(t *testing.T) {
	f := func(seed int64, rawC uint8) bool {
		c := float64(rawC%50)/10 + 0.1
		rng := rand.New(rand.NewSource(seed))
		ps := NewParamSet()
		ps.Add("a", 3, 3)
		ps.Add("b", 2, 5)
		g := NewGrads(ps)
		for _, m := range g.Mats() {
			m.RandNormal(5, rng)
		}
		g.ClipL2(c)
		return g.Norm2() <= c*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGradsAddScaleZero(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", 1, 2)
	a, b := NewGrads(ps), NewGrads(ps)
	a.Mats()[0].Data[0] = 1
	b.Mats()[0].Data[0] = 2
	a.Add(3, b)
	if a.Mats()[0].Data[0] != 7 {
		t.Fatalf("Add: got %v, want 7", a.Mats()[0].Data[0])
	}
	a.Scale(2)
	if a.Mats()[0].Data[0] != 14 {
		t.Fatalf("Scale: got %v", a.Mats()[0].Data[0])
	}
}

func TestAddGaussianNoise(t *testing.T) {
	ps := NewParamSet()
	ps.Add("w", 100, 100)
	g := NewGrads(ps)
	rng := rand.New(rand.NewSource(1))
	g.AddGaussianNoise(2, rng)
	// Empirical std over 10k coords should be near 2.
	var sum, sumsq float64
	for _, v := range g.Mats()[0].Data {
		sum += v
		sumsq += v * v
	}
	n := float64(len(g.Mats()[0].Data))
	std := math.Sqrt(sumsq/n - (sum/n)*(sum/n))
	if std < 1.8 || std > 2.2 {
		t.Fatalf("noise std %v, want ≈2", std)
	}
	// Zero sigma is a no-op.
	g.Mats()[0].Zero()
	g.AddGaussianNoise(0, rng)
	if g.Norm2() != 0 {
		t.Fatal("sigma=0 must add nothing")
	}
}

func TestBindCollect(t *testing.T) {
	ps := NewParamSet()
	w := ps.Add("w", 2, 2)
	w.Value.Fill(1)
	ps.Add("unused", 1, 1)

	tp := autodiff.NewTape()
	nodes := Bind(tp, ps)
	x := tp.Leaf(tensor.FromSlice(2, 2, []float64{1, 2, 3, 4}))
	loss := autodiff.Sum(autodiff.Mul(nodes[0], x))
	tp.Backward(loss)

	g := NewGrads(ps)
	Collect(nodes, g)
	if !tensor.Equal(g.Mats()[0], x.Value, 1e-12) {
		t.Fatalf("collected grad %v, want %v", g.Mats()[0], x.Value)
	}
	if g.Mats()[1].Norm2() != 0 {
		t.Fatal("unused param must get zero grad")
	}
}

// Linear regression with Adam must converge: y = −3x + 0.5.
func TestAdamConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ps := NewParamSet()
	ps.Add("w", 1, 1)
	ps.Add("b", 1, 1)
	ps.GlorotInit(rng)
	opt := NewAdam(ps, 0.05)
	g := NewGrads(ps)
	for epoch := 0; epoch < 500; epoch++ {
		tp := autodiff.NewTape()
		nodes := Bind(tp, ps)
		xv := rng.Float64()*4 - 2
		x := tp.Leaf(tensor.FromSlice(1, 1, []float64{xv}))
		pred := autodiff.Add(autodiff.MatMul(x, nodes[0]), nodes[1])
		negTarget := tp.Leaf(tensor.FromSlice(1, 1, []float64{3*xv - 0.5}))
		diff := autodiff.Add(pred, negTarget)
		loss := autodiff.Sum(autodiff.Mul(diff, diff))
		tp.Backward(loss)
		Collect(nodes, g)
		opt.Step(g)
	}
	wv := ps.Get("w").Value.Data[0]
	bv := ps.Get("b").Value.Data[0]
	if math.Abs(wv+3) > 0.1 || math.Abs(bv-0.5) > 0.1 {
		t.Fatalf("Adam failed to converge: w=%v b=%v", wv, bv)
	}
}
