package dp

import (
	"fmt"
	"math"
	"math/rand"
)

// SampleLaplace draws one Laplace(0, b) variate by inverse transform; b
// is the scale Δf/ε of the classical Laplace mechanism (Example 2 of the
// paper uses it to show why noisy greedy fails).
func SampleLaplace(b float64, rng *rand.Rand) float64 {
	u := rng.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// SMLNoise adds symmetric multivariate Laplace noise with scale parameter
// s to dst, the mechanism the HP baseline (Xiang et al.) pairs with
// HeterPoisson sampling. SML(s) is a Gaussian scale mixture: draw
// W ~ Exponential(1) once per vector, then add √W·N(0, s²) per coordinate,
// which produces the heavier-than-Gaussian tails the HP analysis needs.
func SMLNoise(dst []float64, s float64, rng *rand.Rand) {
	if s < 0 {
		panic(fmt.Sprintf("dp: SMLNoise scale %v < 0", s))
	}
	if s == 0 {
		return
	}
	w := rng.ExpFloat64()
	sw := math.Sqrt(w) * s
	for i := range dst {
		dst[i] += rng.NormFloat64() * sw
	}
}

// GaussianMechanismSigma returns the classical analytic noise scale
// σ = Δ·√(2·ln(1.25/δ))/ε for a single release of an l2-sensitivity-Δ
// query under (ε, δ)-DP — used as a sanity reference against the RDP
// accountant (which is tighter under composition).
func GaussianMechanismSigma(delta, eps, delta2Sensitivity float64) float64 {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("dp: GaussianMechanismSigma(eps=%v, delta=%v) invalid", eps, delta))
	}
	return delta2Sensitivity * math.Sqrt(2*math.Log(1.25/delta)) / eps
}
