// Benchmarks for the worker-pool compute kernels (internal/parallel and
// the paths threaded through it). Each family runs the same workload at
// several pool widths so `make bench` can report speedup-vs-serial;
// cmd/benchjson aggregates the output into BENCH_PR3.json. Every kernel is
// bit-for-bit deterministic across widths (see the *WorkerInvariant /
// *BitExact tests), so these measure wall-clock only.
package privim_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/parallel"
	core "privim/internal/privim"
	"privim/internal/tensor"
)

// benchWorkerWidths are the pool widths every parallel family sweeps.
var benchWorkerWidths = []int{1, 2, 4, 8}

// withWorkers pins the process-wide pool width for one sub-benchmark.
func withWorkers(b *testing.B, workers int, fn func(b *testing.B)) {
	b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
		old := parallel.Limit()
		parallel.SetLimit(workers)
		defer parallel.SetLimit(old)
		fn(b)
	})
}

func BenchmarkParallelGEMM(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(n, n)
	y := tensor.New(n, n)
	x.RandUniform(1, rng)
	y.RandUniform(1, rng)
	out := tensor.New(n, n)
	for _, w := range benchWorkerWidths {
		withWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, x, y, false)
			}
		})
	}
}

func BenchmarkParallelDiffusion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := dataset.BarabasiAlbert(3000, 4, rng)
	g.SetUniformWeights(0.1)
	model := &diffusion.IC{G: g}
	seeds := []graph.NodeID{0, 10, 100, 1000}
	for _, w := range benchWorkerWidths {
		withWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				diffusion.Estimate(context.Background(), model, seeds, 200, 7, diffusion.Options{})
			}
		})
	}
}

func BenchmarkParallelRRSets(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := dataset.BarabasiAlbert(2000, 4, rng)
	g.SetUniformWeights(0.1)
	for _, w := range benchWorkerWidths {
		withWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := &im.RIS{G: g, Samples: 2000, Seed: 11}
				r.Select(5)
			}
		})
	}
}

func BenchmarkParallelDPSGD(b *testing.B) {
	ds, err := dataset.Generate(dataset.Email, dataset.Options{Scale: 0.3, Seed: 1, InfluenceProb: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := ds.TrainSubgraph().G
	for _, w := range benchWorkerWidths {
		withWorkers(b, w, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Train(context.Background(), g, core.Config{
					Mode: core.ModeDual, Epsilon: 3, Iterations: 5,
					SubgraphSize: 12, HiddenDim: 16, Layers: 2, Seed: 9,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
