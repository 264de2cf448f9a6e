package im

import (
	"context"
	"math"
	"slices"
	"testing"

	"privim/internal/dataset"
	"privim/internal/graph"
	"privim/internal/parallel"
)

// binomialPMF is the exact Binomial(d, p) mass at k, through log-gamma.
func binomialPMF(d, k int, p float64) float64 {
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return math.Exp(lg(d) - lg(k) - lg(d-k) + float64(k)*math.Log(p) + float64(d-k)*math.Log1p(-p))
}

// TestBinomialTableMatchesPMF checks every table entry against the exact
// CDF: the mass the table gives each count is the Binomial mass within
// 10⁻¹² plus the log-gamma oracle's own relative error (about 10⁻¹⁰ at
// d = 2·10⁵), and the table ends in cdfEnd.
func TestBinomialTableMatchesPMF(t *testing.T) {
	var v rrView
	v.tabs = map[binKey]int32{}
	for _, c := range []struct {
		d int
		p float64
	}{{1, 0.3}, {2, 0.5}, {7, 0.5}, {20, 0.15}, {300, 1.0 / 300}, {5000, 0.01}, {200000, 0.001}} {
		off := v.table(c.d, c.p)
		if again := v.table(c.d, c.p); again != off {
			t.Fatalf("(%d, %v): second lookup gave table %d, want %d", c.d, c.p, again, off)
		}
		var prev uint64
		for k := 0; ; k++ {
			x := v.cdf[int(off)+k]
			mass := float64(x-prev) / cdfEnd
			if x == cdfEnd {
				// The last count takes the whole tail.
				tail := 0.0
				for j := k; j <= c.d; j++ {
					tail += binomialPMF(c.d, j, c.p)
				}
				if math.Abs(mass-tail) > 1e-12+1e-9*tail {
					t.Fatalf("(%d, %v): tail from %d has mass %v, want %v", c.d, c.p, k, mass, tail)
				}
				break
			}
			if k >= c.d {
				t.Fatalf("(%d, %v): table runs past d without cdfEnd", c.d, c.p)
			}
			if want := binomialPMF(c.d, k, c.p); math.Abs(mass-want) > 1e-12+1e-9*want {
				t.Fatalf("(%d, %v): P(K=%d) = %v, want %v", c.d, c.p, k, mass, want)
			}
			prev = x
		}
	}
}

// starGraph has node 0 fed by one arc of weight p from each of nodes 1..d.
func starGraph(d int, p float64) *graph.Graph {
	b := graph.NewBuilder(d+1, true)
	for i := 1; i <= d; i++ {
		b.AddEdge(graph.NodeID(i), 0, p)
	}
	return b.Build()
}

// chiSquareBound is a conservative upper quantile of χ² with df degrees
// of freedom: the Wilson–Hilferty cube at z = 5, which a correct sampler
// exceeds with probability below 10⁻⁶.
func chiSquareBound(df int) float64 {
	f := float64(df)
	a := 2 / (9 * f)
	return f * math.Pow(1-a+5*math.Sqrt(a), 3)
}

// TestCountSamplerStar draws depth-1 RR sets of a star's centre from fixed
// streams: set size minus one must be Binomial(d, p) by a chi-square
// test, and each leaf must be picked with frequency p within 5σ.
func TestCountSamplerStar(t *testing.T) {
	const sets = 100_000
	for _, c := range []struct {
		d int
		p float64
	}{{20, 0.15}, {7, 0.5}, {300, 1.0 / 300}, {1, 0.3}} {
		g := starGraph(c.d, c.p)
		var v rrView
		v.build(g, false)
		if v.how[0] < 0 {
			t.Fatalf("(%d, %v): centre takes rule %d, want a count table", c.d, c.p, v.how[0])
		}
		sc := newRRScratch(g.NumNodes())
		var rng parallel.StreamRNG
		sizes := make([]int, c.d+1)
		picks := make([]int, c.d+1)
		for i := 0; i < sets; i++ {
			rng.SetStream(17, uint64(i))
			start, end := reverseReachable(&v, 0, 1, &rng, sc)
			set := sc.arena[start:end]
			sizes[len(set)-1]++
			for _, w := range set[1:] {
				picks[w]++
			}
			sc.arena = sc.arena[:0]
		}
		// Pool the tail into bins of expected count ≥ 5.
		var chi2, obs, exp float64
		bins := 0
		for k := 0; k <= c.d; k++ {
			obs += float64(sizes[k])
			exp += sets * binomialPMF(c.d, k, c.p)
			if exp >= 5 || k == c.d {
				chi2 += (obs - exp) * (obs - exp) / max(exp, 1e-300)
				obs, exp = 0, 0
				bins++
			}
		}
		if bins > 1 {
			if bound := chiSquareBound(bins - 1); chi2 > bound {
				t.Errorf("(%d, %v): χ² = %.1f over %d bins, want <= %.1f; sizes %v", c.d, c.p, chi2, bins, bound, sizes)
			}
		}
		sigma := math.Sqrt(c.p * (1 - c.p) / sets)
		for w := 1; w <= c.d; w++ {
			if f := float64(picks[w]) / sets; math.Abs(f-c.p) > 5*sigma {
				t.Errorf("(%d, %v): leaf %d picked with frequency %v, want %v ± %v", c.d, c.p, w, f, c.p, 5*sigma)
			}
		}
	}
}

// drawSets draws sets RR sets through v from seed's streams.
func drawSets(t *testing.T, v *rrView, sets, maxDepth int, seed int64) *rrArena {
	t.Helper()
	var arena rrArena
	scratch := parallel.NewScratch(func() *rrScratch { return newRRScratch(v.n) })
	if _, _, err := generateRRSets(context.Background(), v, &arena, sets, 0, maxDepth, seed, 2, scratch, nil, nil, ""); err != nil {
		t.Fatal(err)
	}
	return &arena
}

// rrStats draws sets RR sets through v and returns each set size and
// how many sets hold each node.
func rrStats(t *testing.T, v *rrView, sets, maxDepth int, seed int64) (sizes []float64, hits []int) {
	t.Helper()
	arena := drawSets(t, v, sets, maxDepth, seed)
	sizes = make([]float64, sets)
	hits = make([]int, v.n)
	for i := range sizes {
		s := arena.set(i)
		sizes[i] = float64(len(s))
		for _, w := range s {
			hits[w]++
		}
	}
	return sizes, hits
}

// meanVar returns the mean and sample variance of xs.
func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs)-1)
}

// TestCountSamplerMatchesCoinPath compares the count sampler with the
// coin path on power-law graphs under weighted cascade and under one
// uniform weight: the mean set size and every node's inclusion frequency
// must agree within 5σ of the difference of two independent samples.
func TestCountSamplerMatchesCoinPath(t *testing.T) {
	const sets = 40_000
	for _, c := range []struct {
		name     string
		weight   float64 // 0 = weighted cascade
		maxDepth int
	}{{"wc", 0, 0}, {"wc-depth2", 0, 2}, {"uniform-0.1", 0.1, 0}} {
		ds, err := dataset.Generate(dataset.Bitcoin, dataset.Options{Scale: 0.1, Seed: 3, InfluenceProb: c.weight})
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		var count, coin rrView
		count.build(g, false)
		coin.build(g, true)
		tables := 0
		for _, how := range count.how {
			if how >= 0 {
				tables++
			}
		}
		if tables == 0 {
			t.Fatalf("%s: no node takes the count path", c.name)
		}
		cs, ch := rrStats(t, &count, sets, c.maxDepth, 5)
		rs, rh := rrStats(t, &coin, sets, c.maxDepth, 6)
		cm, cv := meanVar(cs)
		rm, rv := meanVar(rs)
		if z := (cm - rm) / math.Sqrt(cv/sets+rv/sets); math.Abs(z) > 5 {
			t.Errorf("%s: mean set size %.4f (count) vs %.4f (coin), z = %.2f", c.name, cm, rm, z)
		}
		for w := range ch {
			p := float64(ch[w]+rh[w]) / (2 * sets)
			if p == 0 {
				continue
			}
			sigma := math.Sqrt(2 * p * (1 - p) / sets)
			if d := float64(ch[w]-rh[w]) / sets; math.Abs(d) > 5*sigma {
				t.Errorf("%s: node %d in %d (count) vs %d (coin) of %d sets, beyond 5σ", c.name, w, ch[w], rh[w], sets)
			}
		}
	}
}

// TestUnitWeightPicksMatchCoinPath checks that on the paper's unit-weight
// presets, where every live arc is certain, IMM and RIS pick exactly
// what the coin path picks at depths 1 and 2: unit weights take every
// in-arc in CSR order without a draw, the coin path's order.
func TestUnitWeightPicksMatchCoinPath(t *testing.T) {
	for _, p := range dataset.AllPresets() {
		ds, err := dataset.Generate(p, dataset.Options{Scale: 0.02, Seed: 1, InfluenceProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		var count, coin rrView
		count.build(g, false)
		coin.build(g, true)
		for _, depth := range []int{1, 2} {
			a := drawSets(t, &count, 2000, depth, 11)
			b := drawSets(t, &coin, 2000, depth, 11)
			if !slices.Equal(a.nodes, b.nodes) || !slices.Equal(a.offs, b.offs) {
				t.Errorf("%s depth %d: RR sets differ from the coin path's", p, depth)
			}
			imm := (&IMM{G: g, MaxDepth: depth, Seed: 7}).Select(10)
			immCoin := (&IMM{G: g, MaxDepth: depth, Seed: 7, coin: true}).Select(10)
			if !slices.Equal(imm, immCoin) {
				t.Errorf("%s depth %d: IMM picks %v, coin path %v", p, depth, imm, immCoin)
			}
			ris := (&RIS{G: g, MaxDepth: depth, Seed: 7}).Select(10)
			risCoin := (&RIS{G: g, MaxDepth: depth, Seed: 7, coin: true}).Select(10)
			if !slices.Equal(ris, risCoin) {
				t.Errorf("%s depth %d: RIS picks %v, coin path %v", p, depth, ris, risCoin)
			}
		}
	}
}
