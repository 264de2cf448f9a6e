package dp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func validAcc(sigma float64) Accountant {
	return Accountant{M: 200, B: 16, Ng: 4, Sigma: sigma}
}

func TestAccountantValidate(t *testing.T) {
	good := validAcc(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Accountant{
		{M: 0, B: 1, Ng: 1, Sigma: 1},
		{M: 10, B: 0, Ng: 1, Sigma: 1},
		{M: 10, B: 11, Ng: 1, Sigma: 1},
		{M: 10, B: 5, Ng: 0, Sigma: 1},
		{M: 10, B: 5, Ng: 1, Sigma: 0},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, a)
		}
	}
}

func TestRDPNonnegativeAndIncreasingInAlpha(t *testing.T) {
	a := validAcc(1.5)
	prev := 0.0
	for _, alpha := range []float64{1.5, 2, 4, 8, 16, 32} {
		g := a.RDP(alpha)
		if g < 0 || math.IsNaN(g) {
			t.Fatalf("gamma(%v) = %v", alpha, g)
		}
		if g < prev-1e-12 {
			t.Fatalf("gamma not nondecreasing: gamma(%v)=%v < prev %v", alpha, g, prev)
		}
		prev = g
	}
}

func TestRDPDecreasingInSigma(t *testing.T) {
	prev := math.Inf(1)
	for _, sigma := range []float64{0.5, 1, 2, 4, 8} {
		g := validAcc(sigma).RDP(8)
		if g > prev+1e-12 {
			t.Fatalf("gamma not decreasing in sigma: %v after %v", g, prev)
		}
		prev = g
	}
	// Huge sigma drives gamma to ~0.
	if g := validAcc(1e6).RDP(8); g > 1e-6 {
		t.Fatalf("gamma at huge sigma = %v, want ≈0", g)
	}
}

func TestSmallerNgNeedsLessAbsoluteNoise(t *testing.T) {
	// The dual-stage scheme's whole point: the injected noise has scale
	// σ·C·Ng, so at a fixed privacy target the *absolute* noise magnitude
	// shrinks when Ng drops (PrivIM* caps occurrences at M < N_g). Note the
	// per-iteration γ at fixed σ actually moves the other way — larger Ng
	// means a smaller worst-case relative shift B/Ng — which is why the
	// comparison must be made after calibration.
	const C = 1.0
	sigmaHi, err := CalibrateSigma(3, 1e-5, 50, 16, 200, 50)
	if err != nil {
		t.Fatal(err)
	}
	sigmaLo, err := CalibrateSigma(3, 1e-5, 50, 16, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	noiseHi := sigmaHi * C * 50
	noiseLo := sigmaLo * C * 4
	if noiseLo >= noiseHi {
		t.Fatalf("absolute noise with Ng=4 (%v) should be < with Ng=50 (%v)", noiseLo, noiseHi)
	}
}

func TestRDPPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha <= 1")
		}
	}()
	a := validAcc(1)
	a.RDP(1)
}

func TestConvertRDP(t *testing.T) {
	// Hand-computed: alpha=2, gamma=1, delta=1e-5:
	// eps = 1 + log(1/2) − (log 1e-5 + log 2)/1.
	want := 1 + math.Log(0.5) - (math.Log(1e-5) + math.Log(2))
	if got := ConvertRDP(2, 1, 1e-5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ConvertRDP = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for delta >= 1")
		}
	}()
	ConvertRDP(2, 1, 1)
}

func TestEpsilonComposesLinearlyInT(t *testing.T) {
	a := validAcc(2)
	e1 := a.Epsilon(10, 1e-5)
	e2 := a.Epsilon(100, 1e-5)
	if e2 <= e1 {
		t.Fatalf("epsilon must grow with T: eps(100)=%v <= eps(10)=%v", e2, e1)
	}
	// Sublinear growth thanks to RDP composition: eps(100) < 10*eps(10)
	// once the delta conversion overhead is amortized.
	if e2 >= 10*e1 {
		t.Fatalf("RDP composition should beat naive linear: eps(100)=%v vs 10*eps(10)=%v", e2, 10*e1)
	}
}

func TestCalibrateSigmaMeetsTarget(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 3, 6} {
		sigma, err := CalibrateSigma(eps, 1e-5, 50, 16, 200, 4)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		got := (Accountant{M: 200, B: 16, Ng: 4, Sigma: sigma}).Epsilon(50, 1e-5)
		if got > eps*1.0001 {
			t.Fatalf("eps=%v: calibrated sigma %v achieves only %v", eps, sigma, got)
		}
		// Tightness: 1% smaller sigma must violate the target.
		loose := (Accountant{M: 200, B: 16, Ng: 4, Sigma: sigma / 1.05}).Epsilon(50, 1e-5)
		if loose <= eps {
			t.Fatalf("eps=%v: sigma %v not tight (sigma/1.05 still satisfies: %v)", eps, sigma, loose)
		}
	}
}

func TestCalibrateSigmaMonotoneInEpsilon(t *testing.T) {
	prev := math.Inf(1)
	for _, eps := range []float64{1, 2, 3, 4, 5, 6} {
		sigma, err := CalibrateSigma(eps, 1e-5, 50, 16, 200, 4)
		if err != nil {
			t.Fatal(err)
		}
		if sigma > prev {
			t.Fatalf("sigma must shrink as epsilon grows: sigma(%v)=%v > prev %v", eps, sigma, prev)
		}
		prev = sigma
	}
}

func TestCalibrateSigmaBadTarget(t *testing.T) {
	for _, c := range []struct {
		name            string
		eps, delta      float64
		iters, b, m, ng int
	}{
		{"epsilon 0", 0, 1e-5, 10, 4, 100, 2},
		{"T 0", 1, 1e-5, 0, 4, 100, 2},
		{"B 0", 1, 1e-5, 10, 0, 100, 2},
		{"delta 0", 1, 0, 10, 4, 100, 2},
		{"delta 1", 1, 1, 10, 4, 100, 2},
	} {
		if _, err := CalibrateSigma(c.eps, c.delta, c.iters, c.b, c.m, c.ng); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

// Property: calibration always meets the target for random valid configs.
func TestCalibrateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 50 + rng.Intn(500)
		b := 1 + rng.Intn(m/2+1)
		ng := 1 + rng.Intn(10)
		T := 1 + rng.Intn(100)
		eps := 0.5 + rng.Float64()*5
		sigma, err := CalibrateSigma(eps, 1e-5, T, b, m, ng)
		if err != nil {
			return false
		}
		got := (Accountant{M: m, B: b, Ng: ng, Sigma: sigma}).Epsilon(T, 1e-5)
		return got <= eps*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSensitivities(t *testing.T) {
	if got := NodeSensitivity(0.5, 11); got != 5.5 {
		t.Fatalf("NodeSensitivity = %v, want 5.5", got)
	}
	for _, fn := range []func(){
		func() { NodeSensitivity(0, 1) },
		func() { NodeSensitivity(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLogChoose(t *testing.T) {
	// C(10,3) = 120.
	if got := math.Exp(logChoose(10, 3)); math.Abs(got-120) > 1e-9 {
		t.Fatalf("C(10,3) = %v", got)
	}
	if !math.IsInf(logChoose(3, 5), -1) {
		t.Fatal("C(3,5) must be -Inf in log space")
	}
}

func TestLogBinomPMFSumsToOne(t *testing.T) {
	n, p := 20, 0.17
	total := 0.0
	for k := 0; k <= n; k++ {
		total += math.Exp(logBinomPMF(n, k, p))
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("binomial pmf sums to %v", total)
	}
	// Degenerate p.
	if math.Exp(logBinomPMF(5, 0, 0)) != 1 || !math.IsInf(logBinomPMF(5, 1, 0), -1) {
		t.Fatal("p=0 pmf wrong")
	}
	if math.Exp(logBinomPMF(5, 5, 1)) != 1 || !math.IsInf(logBinomPMF(5, 4, 1), -1) {
		t.Fatal("p=1 pmf wrong")
	}
}

func TestLaplaceNoiseStats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const draws = 50000
	var absSum float64
	for i := 0; i < draws; i++ {
		absSum += math.Abs(SampleLaplace(2, rng))
	}
	// E|Laplace(0,b)| = b.
	mean := absSum / draws
	if mean < 1.9 || mean > 2.1 {
		t.Fatalf("laplace E|X| = %v, want ≈2", mean)
	}
}

func TestSMLNoiseHeavierTails(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const trials = 4000
	const dim = 16
	// Kurtosis of SML coordinates exceeds Gaussian's 3.
	var sq, quad float64
	for i := 0; i < trials; i++ {
		v := make([]float64, dim)
		SMLNoise(v, 1, rng)
		for _, x := range v {
			sq += x * x
			quad += x * x * x * x
		}
	}
	n := float64(trials * dim)
	kurt := (quad / n) / math.Pow(sq/n, 2)
	if kurt < 3.5 {
		t.Fatalf("SML kurtosis %v, want > 3.5 (heavier than Gaussian)", kurt)
	}
}

func TestGaussianMechanismSigma(t *testing.T) {
	// Known closed form at eps=1, delta=1e-5, Δ=1.
	want := math.Sqrt(2 * math.Log(1.25e5))
	if got := GaussianMechanismSigma(1e-5, 1, 1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("analytic sigma = %v, want %v", got, want)
	}
}

func TestNoisePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, fn := range []func(){
		func() { SMLNoise(nil, -1, rng) },
		func() { GaussianMechanismSigma(1e-5, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
