package privim

import (
	"context"
	"runtime/debug"
	"testing"
)

// TestTrainSteadyStateAllocs pins the steady-state cost of one DP-SGD
// iteration at pool widths 1, 2, 4 and 8. Setup (dataset tensors,
// parameter init, sigma calibration) allocates freely; the per-iteration
// marginal must stay flat, which is what the scratch-arena reuse in
// train.go / sampling / autodiff buys. Measured by differencing two
// Train calls that differ only in iteration count, so everything outside
// the loop cancels exactly.
func TestTrainSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc floors do not hold under -race (sync.Pool drops Puts)")
	}
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	// A collection mid-measurement empties the sync.Pools and adds
	// reallocations to whichever run it lands in; without one the
	// marginal is an exact count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	runAllocs := func(workers, iters int) float64 {
		cfg := quickConfig(ModeDual)
		cfg.Workers = workers
		cfg.Iterations = iters
		return testing.AllocsPerRun(3, func() {
			if _, err := Train(context.Background(), train, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	// forAllocs bounds one parallel.For over tasks items at width w: 0
	// inline, else 3 + 2w' at the effective width w' = min(w, tasks).
	forAllocs := func(w, tasks int) int {
		w = min(w, tasks)
		if w <= 1 {
			return 0
		}
		return 3 + 2*w
	}
	batch := quickConfig(ModeDual).BatchSize

	var serial float64
	for _, w := range []int{1, 2, 4, 8} {
		runAllocs(w, 2) // warm package-level pools
		short, long := runAllocs(w, 2), runAllocs(w, 10)
		perIter := (long - short) / 8
		t.Logf("width %d: marginal allocs per DP-SGD iteration %.1f (iters=2: %.0f, iters=10: %.0f)", w, perIter, short, long)
		if w == 1 {
			// Measured ~1/iter (map-bucket jitter in subgraph
			// bookkeeping); 20 leaves headroom while still catching any
			// per-iteration buffer that stops being reused.
			if perIter > 20 {
				t.Errorf("steady-state DP-SGD iteration allocates %.1f objects, want <= 20", perIter)
			}
			serial = perIter
			continue
		}
		// Over the serial marginal, an iteration adds its fan-outs: the
		// per-sample gradient pass over the batch, then one nn.SumTree
		// level (a closure plus a For over its pairs) per halving of the
		// batch; w more covers per-worker scratch that only the longer run
		// touches.
		fanOut := forAllocs(w, batch)
		for stride := 1; stride < batch; stride *= 2 {
			fanOut += 1 + forAllocs(w, (batch-stride+2*stride-1)/(2*stride))
		}
		if want := serial + float64(fanOut+w); perIter > want {
			t.Errorf("width %d: steady-state DP-SGD iteration allocates %.1f objects, want <= %.1f", w, perIter, want)
		}
	}
}
