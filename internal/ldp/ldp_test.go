package ldp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"privim/internal/dataset"
	"privim/internal/graph"
	"privim/internal/im"
)

func TestRRProbabilities(t *testing.T) {
	p, q := RRProbabilities(math.Log(3)) // e^eps = 3
	if math.Abs(p-0.75) > 1e-12 || math.Abs(q-0.25) > 1e-12 {
		t.Fatalf("RR(ln 3) = (%v, %v), want (0.75, 0.25)", p, q)
	}
	// p + q = 1 always; p/q = e^eps.
	for _, eps := range []float64{0.1, 1, 5} {
		p, q := RRProbabilities(eps)
		if math.Abs(p+q-1) > 1e-12 {
			t.Fatalf("p+q = %v", p+q)
		}
		if math.Abs(p/q-math.Exp(eps)) > 1e-9 {
			t.Fatalf("p/q = %v, want e^%v", p/q, eps)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for eps <= 0")
		}
	}()
	RRProbabilities(0)
}

func TestDebiasUnbiased(t *testing.T) {
	// Average debiased estimate over many perturbations must approach the
	// true degree.
	b := graph.NewBuilder(50, true)
	for v := 1; v <= 20; v++ {
		b.AddEdge(0, graph.NodeID(v), 1) // node 0 has out-degree 20
	}
	g := b.Build()
	const eps = 1.0
	const trials = 400
	rng := rand.New(rand.NewSource(1))
	sum := 0.0
	for i := 0; i < trials; i++ {
		obs := PerturbOutDegrees(g, eps, rng)
		est := DebiasDegrees(obs, g.NumNodes(), eps)
		sum += est[0]
	}
	mean := sum / trials
	if math.Abs(mean-20) > 1.5 {
		t.Fatalf("debiased mean %v, want ≈20", mean)
	}
}

func TestHighEpsilonRecoversExactDegrees(t *testing.T) {
	b := graph.NewBuilder(30, true)
	for v := 1; v < 10; v++ {
		b.AddEdge(0, graph.NodeID(v), 1)
		b.AddEdge(graph.NodeID(v), graph.NodeID(v-1), 1)
	}
	g := b.Build()
	rng := rand.New(rand.NewSource(2))
	obs := PerturbOutDegrees(g, 20, rng) // e^20: essentially no noise
	est := DebiasDegrees(obs, g.NumNodes(), 20)
	for v := 0; v < g.NumNodes(); v++ {
		if math.Abs(est[v]-float64(g.OutDegree(graph.NodeID(v)))) > 0.5 {
			t.Fatalf("node %d estimate %v, true %d", v, est[v], g.OutDegree(graph.NodeID(v)))
		}
	}
}

func TestDegreeSeederFindsHubsAtModerateEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := dataset.BarabasiAlbert(300, 3, rng)
	g.SetUniformWeights(1)
	s := &DegreeSeeder{G: g, Epsilon: 3, Seed: 4}
	seeds := s.Select(10)
	if err := im.ValidateSeeds(seeds, g.NumNodes()); err != nil {
		t.Fatal(err)
	}
	// Compare against true top degrees: substantial overlap expected.
	trueTop := (&im.Degree{G: g}).Select(10)
	trueSet := map[graph.NodeID]bool{}
	for _, v := range trueTop {
		trueSet[v] = true
	}
	overlap := 0
	for _, v := range seeds {
		if trueSet[v] {
			overlap++
		}
	}
	if overlap < 5 {
		t.Fatalf("LDP seeds %v overlap only %d/10 with true hubs %v", seeds, overlap, trueTop)
	}
}

func TestDegreeSeederDegradesWithEpsilon(t *testing.T) {
	// Utility must degrade as eps shrinks: measured as overlap with true
	// hubs, averaged over seeds.
	rng := rand.New(rand.NewSource(5))
	g := dataset.BarabasiAlbert(200, 3, rng)
	trueTop := (&im.Degree{G: g}).Select(10)
	trueSet := map[graph.NodeID]bool{}
	for _, v := range trueTop {
		trueSet[v] = true
	}
	overlapAt := func(eps float64) int {
		total := 0
		for trial := int64(0); trial < 10; trial++ {
			s := &DegreeSeeder{G: g, Epsilon: eps, Seed: trial}
			for _, v := range s.Select(10) {
				if trueSet[v] {
					total++
				}
			}
		}
		return total
	}
	strong := overlapAt(6)
	weak := overlapAt(0.1)
	if weak >= strong {
		t.Fatalf("overlap should degrade with privacy: eps=0.1 gives %d, eps=6 gives %d", weak, strong)
	}
}

func TestDegreeSeederEdgeCases(t *testing.T) {
	b := graph.NewBuilder(5, true)
	b.AddEdge(0, 1, 1)
	g := b.Build()
	s := &DegreeSeeder{G: g, Epsilon: 1, Seed: 1}
	if got := s.Select(0); got != nil {
		t.Fatalf("Select(0) = %v", got)
	}
	if got := s.Select(10); len(got) != 5 {
		t.Fatalf("Select(10) = %d seeds", len(got))
	}
	if s.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestExpectedDegreeError(t *testing.T) {
	// Error shrinks with eps and grows with n.
	if ExpectedDegreeError(1000, 1) <= ExpectedDegreeError(1000, 4) {
		t.Fatal("error should shrink with epsilon")
	}
	if ExpectedDegreeError(10000, 1) <= ExpectedDegreeError(100, 1) {
		t.Fatal("error should grow with n")
	}
	// Sanity: matches the empirical std within 20%.
	b := graph.NewBuilder(200, true)
	for v := 1; v <= 30; v++ {
		b.AddEdge(0, graph.NodeID(v), 1)
	}
	g := b.Build()
	rng := rand.New(rand.NewSource(6))
	var ests []float64
	for i := 0; i < 300; i++ {
		obs := PerturbOutDegrees(g, 1, rng)
		ests = append(ests, DebiasDegrees(obs, 200, 1)[0])
	}
	var mean, varSum float64
	for _, e := range ests {
		mean += e
	}
	mean /= float64(len(ests))
	for _, e := range ests {
		varSum += (e - mean) * (e - mean)
	}
	empStd := math.Sqrt(varSum / float64(len(ests)))
	predStd := ExpectedDegreeError(200, 1)
	if empStd < 0.6*predStd || empStd > 1.4*predStd {
		t.Fatalf("empirical std %v vs predicted %v", empStd, predStd)
	}
}

// Property: debiasing is exactly inverse to the RR expectation.
func TestDebiasProperty(t *testing.T) {
	f := func(rawDeg uint8, rawEps uint8) bool {
		n := 100
		deg := int(rawDeg) % n
		eps := 0.5 + float64(rawEps%50)/10
		p, q := RRProbabilities(eps)
		expectedObs := float64(deg)*p + float64(n-1-deg)*q
		est := DebiasDegrees([]float64{expectedObs}, n, eps)
		return math.Abs(est[0]-float64(deg)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
