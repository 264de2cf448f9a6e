package privim

import (
	"context"
	"testing"

	"privim/internal/obs"
)

// TestTrainWorkersBitExact verifies the tentpole determinism guarantee for
// DP-SGD: the per-sample fan-out plus fixed-shape tree reduction must make
// every loss and trained weight bit-for-bit identical at any worker count
// (the paper's privacy accounting assumes a single well-defined mechanism,
// not one per scheduler interleaving).
func TestTrainWorkersBitExact(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G

	run := func(workers int) *Result {
		cfg := quickConfig(ModeDual)
		cfg.Workers = workers
		res, err := Train(context.Background(), train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ref := run(1)
	for _, w := range []int{2, 3, 8} {
		got := run(w)
		if len(got.LossHistory) != len(ref.LossHistory) {
			t.Fatalf("workers=%d: %d loss entries, want %d", w, len(got.LossHistory), len(ref.LossHistory))
		}
		for i := range ref.LossHistory {
			if got.LossHistory[i] != ref.LossHistory[i] {
				t.Fatalf("workers=%d iter %d: loss %v != %v", w, i, got.LossHistory[i], ref.LossHistory[i])
			}
		}
		refParams := ref.Model.Params.All()
		for pi, p := range got.Model.Params.All() {
			for j, v := range p.Value.Data {
				if v != refParams[pi].Value.Data[j] {
					t.Fatalf("workers=%d: param %s[%d] = %v != %v", w, p.Name, j, v, refParams[pi].Value.Data[j])
				}
			}
		}
		if got.EpsilonSpent != ref.EpsilonSpent {
			t.Fatalf("workers=%d: epsilon %v != %v", w, got.EpsilonSpent, ref.EpsilonSpent)
		}
	}
}

// TestTrainEmitsParallelFor checks the DP-SGD fan-out site reports pool
// activity through the observability stream.
func TestTrainEmitsParallelFor(t *testing.T) {
	ds := quickDataset(t)
	var events []obs.ParallelFor
	cfg := quickConfig(ModeDual)
	cfg.Workers = 2
	cfg.Observer = obs.ObserverFunc(func(e obs.Event) {
		if pf, ok := e.(obs.ParallelFor); ok {
			events = append(events, pf)
		}
	})
	if _, err := Train(context.Background(), ds.TrainSubgraph().G, cfg); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pf := range events {
		if pf.Site == "train.dpsgd" {
			found = true
			if pf.Tasks <= 0 || pf.Workers <= 0 {
				t.Fatalf("degenerate ParallelFor event: %+v", pf)
			}
		}
	}
	if !found {
		t.Fatal("no ParallelFor event for site train.dpsgd")
	}
}
