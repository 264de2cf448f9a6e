// Package ldp implements the local-differential-privacy extension the
// paper names as future work (§VII): instead of a trusted curator adding
// noise during training, each user locally perturbs their own adjacency
// list with randomized response before anything leaves their device. The
// server then debiases aggregate statistics and selects seeds from the
// sanitized view — the "seeding with differentially private network
// information" setting of the paper's reference [29].
//
// Under the one-sided ownership model (each directed arc belongs to its
// source), reporting a randomized-response version of one's out-neighbor
// bit vector satisfies ε-LDP for that user's entire neighbor list when
// each bit is flipped with the standard RR probabilities.
package ldp

import (
	"fmt"
	"math"
	"math/rand"

	"privim/internal/graph"
)

// RRProbabilities returns (p, q) for ε-randomized response on one bit:
// a true bit is reported truthfully with probability p = e^ε/(1+e^ε) and a
// false bit is reported as true with probability q = 1/(1+e^ε).
func RRProbabilities(eps float64) (p, q float64) {
	if eps <= 0 {
		panic(fmt.Sprintf("ldp: epsilon %v must be positive", eps))
	}
	e := math.Exp(eps)
	return e / (1 + e), 1 / (1 + e)
}

// PerturbOutDegrees simulates every user applying ε-randomized response to
// their out-adjacency bit vector and returns the *observed* (noisy)
// out-degree reports. Only the degree aggregate is materialized — the full
// perturbed graph would have Θ(q·n²) edges.
func PerturbOutDegrees(g *graph.Graph, eps float64, rng *rand.Rand) []float64 {
	p, q := RRProbabilities(eps)
	n := g.NumNodes()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		trueDeg := g.OutDegree(graph.NodeID(v))
		// Observed = Binomial(trueDeg, p) + Binomial(n-1-trueDeg, q):
		// surviving true bits plus flipped false bits. Sampled exactly.
		obs := 0
		for i := 0; i < trueDeg; i++ {
			if rng.Float64() < p {
				obs++
			}
		}
		for i := 0; i < n-1-trueDeg; i++ {
			if rng.Float64() < q {
				obs++
			}
		}
		out[v] = float64(obs)
	}
	return out
}

// DebiasDegrees converts observed RR degree reports into unbiased
// estimates of the true out-degrees:
//
//	d̂ = (observed − (n−1)·q) / (p − q)
func DebiasDegrees(observed []float64, numNodes int, eps float64) []float64 {
	p, q := RRProbabilities(eps)
	est := make([]float64, len(observed))
	for i, o := range observed {
		est[i] = (o - float64(numNodes-1)*q) / (p - q)
	}
	return est
}

// DegreeSeeder selects the k nodes with the highest debiased LDP degree
// estimates — the strongest seed selector available without any trusted
// curator. Its utility degrades gracefully as ε shrinks, which is the
// LDP-vs-central-DP trade-off the paper's future work contemplates.
type DegreeSeeder struct {
	G       *graph.Graph
	Epsilon float64
	Seed    int64
}

// Name identifies the seeder for reporting.
func (s *DegreeSeeder) Name() string { return "ldp-degree" }

// Select returns the top-k nodes by debiased noisy degree.
func (s *DegreeSeeder) Select(k int) []graph.NodeID {
	n := s.G.NumNodes()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(s.Seed))
	observed := PerturbOutDegrees(s.G, s.Epsilon, rng)
	est := DebiasDegrees(observed, n, s.Epsilon)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	// Sort by estimate descending, ID ascending on ties (determinism).
	for i := 1; i < n; i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			if est[a] > est[b] || (est[a] == est[b] && a < b) {
				break
			}
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids[:k]
}

// ExpectedDegreeError returns the standard deviation of the debiased
// degree estimator for a graph of numNodes nodes at budget eps — the
// planning formula for choosing ε in deployments:
//
//	σ(d̂) ≈ √((n−1)·q·(1−q)) / (p − q)   (false-bit noise dominates)
func ExpectedDegreeError(numNodes int, eps float64) float64 {
	p, q := RRProbabilities(eps)
	return math.Sqrt(float64(numNodes-1)*q*(1-q)) / (p - q)
}
