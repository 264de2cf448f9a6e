// Package dp implements the differential-privacy machinery of PrivIM:
// noise mechanisms (Laplace sampling and the symmetric multivariate
// Laplace used by the HP baseline; DP-SGD's Gaussian noise is added by
// nn.Grads.AddGaussianNoise), the node-level sensitivity bounds of
// Lemmas 1–2, the Rényi-DP accountant of Theorem 3 (a binomial mixture of
// subsampled Gaussians, computed in log space), the RDP→(ε,δ) conversion of
// Theorem 1, and binary-search calibration of the noise multiplier σ for a
// target privacy budget.
package dp

import (
	"fmt"
	"math"

	"privim/internal/tensor"
)

// Accountant tracks the per-iteration Rényi DP cost of Algorithm 2.
//
// The setting (Theorem 3): a container of M subgraphs, batches of B drawn
// per iteration, any single node touching at most Ng subgraphs, per-sample
// gradients clipped to C, and Gaussian noise N(0, (σ·Δ)² I) with Δ = C·Ng
// added to the summed batch gradient. σ is the dimensionless noise
// multiplier.
type Accountant struct {
	M     int     // subgraph container size m
	B     int     // batch size
	Ng    int     // max occurrences of any node across subgraphs (N_g or M threshold)
	Sigma float64 // noise multiplier σ
}

// Validate reports configuration errors.
func (a Accountant) Validate() error {
	switch {
	case a.M < 1:
		return fmt.Errorf("dp: container size M = %d < 1", a.M)
	case a.B < 1 || a.B > a.M:
		return fmt.Errorf("dp: batch size B = %d outside [1, M=%d]", a.B, a.M)
	case a.Ng < 1:
		return fmt.Errorf("dp: occurrence bound Ng = %d < 1", a.Ng)
	case a.Sigma <= 0:
		return fmt.Errorf("dp: noise multiplier sigma = %v <= 0", a.Sigma)
	}
	return nil
}

// RDP returns γ(α), the per-iteration Rényi divergence bound of Theorem 3:
//
//	γ = 1/(α−1) · log Σ_{i=0}^{Ng} ρ_i · exp(α(α−1)·i² / (2·Ng²·σ²)),
//	ρ_i = C(B,i)·(Ng/M)^i·(1−Ng/M)^{B−i}
//
// The mixture index i counts how many of the (at most Ng) affected
// subgraphs land in the batch; each contributes sensitivity i·C·Ng/Ng = i·C
// relative to the σ·C·Ng noise, giving the i²/Ng² exponent. Computation is
// in log space to survive large B and small σ.
func (a Accountant) RDP(alpha float64) float64 {
	return a.rdp(alpha, nil)
}

// rdp is RDP with a caller-owned scratch buffer for the mixture terms
// (cap ≥ min(B,Ng)+1 makes the call allocation-free; nil allocates). The
// terms are assembled in the same index order regardless of scratch, so
// the LogSumExp result is bit-identical either way.
func (a Accountant) rdp(alpha float64, terms []float64) float64 {
	if alpha <= 1 {
		panic(fmt.Sprintf("dp: RDP order alpha = %v must exceed 1", alpha))
	}
	if err := a.Validate(); err != nil {
		panic(err)
	}
	q := float64(a.Ng) / float64(a.M)
	if q > 1 {
		q = 1
	}
	upper := a.Ng
	if a.B < upper {
		upper = a.B
	}
	ng2 := float64(a.Ng) * float64(a.Ng)
	terms = terms[:0]
	for i := 0; i <= upper; i++ {
		logRho := logBinomPMF(a.B, i, q)
		fi := float64(i)
		exponent := alpha * (alpha - 1) * fi * fi / (2 * ng2 * a.Sigma * a.Sigma)
		terms = append(terms, logRho+exponent)
	}
	lse := tensor.LogSumExp(terms)
	g := lse / (alpha - 1)
	if g < 0 {
		// Numerical floor: the true γ is nonnegative (D_α ≥ 0).
		g = 0
	}
	return g
}

// logBinomPMF returns log C(n,k) + k·log(p) + (n−k)·log(1−p), handling the
// p∈{0,1} edge cases.
func logBinomPMF(n, k int, p float64) float64 {
	switch {
	case p <= 0:
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	case p >= 1:
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// logChoose returns log C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// ConvertRDP applies Theorem 1: for a mechanism that is (α, γ)-RDP,
// it is (ε, δ)-DP with
//
//	ε = γ + log((α−1)/α) − (log δ + log α)/(α−1).
func ConvertRDP(alpha, gamma, delta float64) float64 {
	if alpha <= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("dp: ConvertRDP(alpha=%v, delta=%v) invalid", alpha, delta))
	}
	return gamma + math.Log((alpha-1)/alpha) - (math.Log(delta)+math.Log(alpha))/(alpha-1)
}

// alphaGrid is the package's shared, read-only order grid; public entry
// points hand out copies (AlphaGrid) but internal conversions index it
// directly so the hot calibration loop never rebuilds it.
var alphaGrid = defaultAlphaGrid()

// defaultAlphaGrid covers the orders over which Epsilon optimizes; the
// range mirrors standard DP-SGD accountants.
func defaultAlphaGrid() []float64 {
	grid := make([]float64, 0, 126)
	for a := 1.25; a < 2; a += 0.25 {
		grid = append(grid, a)
	}
	for a := 2.0; a <= 64; a++ {
		grid = append(grid, a)
	}
	for a := 80.0; a <= 512; a *= 1.25 {
		grid = append(grid, a)
	}
	return grid
}

// Epsilon returns the tightest (ε, δ)-DP guarantee for T iterations of
// Algorithm 2, minimizing the Theorem 1 conversion over a grid of Rényi
// orders (sequential composition gives (α, γT)-RDP per Definition 5).
// It is RDPCurve + EpsilonFromCurve in one step.
func (a Accountant) Epsilon(T int, delta float64) float64 {
	if T < 1 {
		panic(fmt.Sprintf("dp: Epsilon T = %d < 1", T))
	}
	return EpsilonFromCurve(a.RDPCurve(T), delta)
}

// CalibrateSigma returns the smallest noise multiplier σ (within rel. tol.
// 1e-3) such that T iterations satisfy (ε, δ)-DP for the given sampling
// setup. It binary searches on σ, using that ε is monotonically decreasing
// in σ. Returns an error for an invalid setup (ε ≤ 0, T < 1, δ outside
// (0, 1), or M, B, Ng failing Accountant.Validate) or if even an enormous
// σ cannot meet the target (which indicates an infeasible configuration).
func CalibrateSigma(targetEps, delta float64, T, B, M, Ng int) (float64, error) {
	switch {
	case !(targetEps > 0):
		return 0, fmt.Errorf("dp: target epsilon %v <= 0", targetEps)
	case T < 1:
		return 0, fmt.Errorf("dp: iterations T = %d < 1", T)
	case !(delta > 0 && delta < 1):
		return 0, fmt.Errorf("dp: delta %v outside (0, 1)", delta)
	}
	if err := (Accountant{M: M, B: B, Ng: Ng, Sigma: 1}).Validate(); err != nil {
		return 0, err
	}
	lo, hi := 1e-3, 1.0
	// One curve and one mixture-term buffer serve every σ probe: the search
	// evaluates Epsilon dozens of times and B, Ng, T never change.
	upper := Ng
	if B < upper {
		upper = B
	}
	terms := make([]float64, 0, upper+1)
	curve := make([]float64, len(alphaGrid))
	epsAt := func(sigma float64) float64 {
		acc := Accountant{M: M, B: B, Ng: Ng, Sigma: sigma}
		for i, alpha := range alphaGrid {
			curve[i] = acc.rdp(alpha, terms) * float64(T)
		}
		return EpsilonFromCurve(curve, delta)
	}
	// Grow hi until the target is met.
	const maxSigma = 1e7
	for epsAt(hi) > targetEps {
		hi *= 2
		if hi > maxSigma {
			return 0, fmt.Errorf("dp: cannot reach epsilon %v even with sigma %g (T=%d B=%d M=%d Ng=%d)",
				targetEps, maxSigma, T, B, M, Ng)
		}
	}
	// Shrink lo until the target is violated (so the root is bracketed).
	for epsAt(lo) <= targetEps {
		lo /= 2
		if lo < 1e-9 {
			return lo, nil // effectively no noise needed
		}
	}
	for hi/lo > 1.001 {
		mid := math.Sqrt(lo * hi)
		if epsAt(mid) <= targetEps {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// NodeSensitivity returns the Lemma 2 bound Δ_g = C·Ng on the l2 distance
// between summed clipped batch gradients of node-adjacent graphs.
func NodeSensitivity(clipBound float64, ng int) float64 {
	if clipBound <= 0 || ng < 1 {
		panic(fmt.Sprintf("dp: NodeSensitivity(C=%v, Ng=%d) invalid", clipBound, ng))
	}
	return clipBound * float64(ng)
}
