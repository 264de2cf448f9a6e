package gnn

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"privim/internal/autodiff"
	"privim/internal/graph"
	"privim/internal/nn"
)

// TestScoreMatchesForwardBitForBit: Score, which resets its tape between
// layers, returns exactly the probabilities Forward computes on one tape,
// for every kind at one and three layers and one and three heads. The
// larger graph crosses the GEMM's parallel thresholds.
func TestScoreMatchesForwardBitForBit(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, layers := range []int{1, 3} {
			for _, heads := range []int{1, 3} {
				for _, size := range [][2]int{{30, 90}, {300, 1500}} {
					t.Run(fmt.Sprintf("%s/layers%d/heads%d/n%d", kind, layers, heads, size[0]), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(10*layers + heads + size[0])))
						g := messyGraph(size[0], size[1], rng)
						m, err := New(Config{Kind: kind, InputDim: 3, HiddenDim: 7, Layers: layers, Heads: heads})
						if err != nil {
							t.Fatal(err)
						}
						m.Init(rng)
						x := tinyFeatures(g, 3, rng)
						tp := autodiff.NewTape()
						want := m.Forward(tp, nn.Bind(tp, m.Params), g, x, m.NewPrep(g)).Value.Data
						if i := firstBitDiff(score(m, g, x), want); i >= 0 {
							t.Fatalf("score[%d] differs from Forward's %v", i, want[i])
						}
					})
				}
			}
		}
	}
}

// TestScoreSteadyStateBytes pins the heap one Score takes on the served
// model's shape: GRAT, 4 structural features, 32 hidden units, 3 layers,
// over a 600-node graph of 3,600 arcs. Score holds one layer's
// intermediates at a time and each layer reuses the last one's buffers;
// one tape across all layers took 2.52 MB.
func TestScoreSteadyStateBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(600, true)
	for i := 0; i < 3600; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(600)), graph.NodeID(rng.Intn(600)), rng.Float64())
	}
	g := b.Build()
	m, err := New(Config{Kind: GRAT, InputDim: 4, HiddenDim: 32, Layers: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rng)
	x := tinyFeatures(g, 4, rng)
	// The GC is off, so no collection empties a pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	score(m, g, x)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		score(m, g, x)
	}
	runtime.ReadMemStats(&after)
	perScore := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("one Score allocates %.0f bytes", perScore)
	if perScore > 1.3e6 {
		t.Errorf("one Score allocates %.0f bytes, want <= 1.3 MB", perScore)
	}
}
