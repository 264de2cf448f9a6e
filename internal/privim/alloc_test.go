package privim

import (
	"context"
	"testing"
)

// TestTrainSteadyStateAllocs pins the steady-state cost of one DP-SGD
// iteration. Setup (dataset tensors, parameter init, sigma calibration)
// allocates freely; the per-iteration marginal must stay flat, which is
// what the scratch-arena reuse in train.go / sampling / autodiff buys.
// Measured by differencing two Train calls that differ only in iteration
// count, so everything outside the loop cancels exactly.
func TestTrainSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc floors do not hold under -race (sync.Pool drops Puts)")
	}
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G

	runAllocs := func(iters int) float64 {
		cfg := quickConfig(ModeDual)
		cfg.Workers = 1
		cfg.Iterations = iters
		return testing.AllocsPerRun(3, func() {
			if _, err := Train(context.Background(), train, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}

	runAllocs(2) // warm package-level pools
	short, long := runAllocs(2), runAllocs(10)
	perIter := (long - short) / 8
	t.Logf("marginal allocs per DP-SGD iteration: %.1f (iters=2: %.0f, iters=10: %.0f)", perIter, short, long)
	// Measured ~4/iter (map-bucket jitter in subgraph bookkeeping); 20
	// leaves headroom for GC timing while still catching any per-iteration
	// buffer that stops being reused.
	if perIter > 20 {
		t.Fatalf("steady-state DP-SGD iteration allocates %.1f objects, want <= 20", perIter)
	}
}
