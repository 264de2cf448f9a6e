package privim

import (
	"context"
	"errors"
	"math"
	"testing"

	"privim/internal/obs"
)

// cancelAtIteration cancels ctx when the trainer reports 0-based
// iteration `at` done; the loop-top check catches it before the next
// iteration starts, so at+1 iterations complete in total.
func cancelAtIteration(cancel context.CancelFunc, at int) obs.Observer {
	return obs.ObserverFunc(func(e obs.Event) {
		if ie, ok := e.(obs.IterationEnd); ok && ie.Iter == at {
			cancel()
		}
	})
}

// TestTrainCancelResumesBitForBit is the cancellation tentpole: a run
// canceled mid-train returns a typed CanceledError with a final
// checkpoint beside the Result of exactly the completed iterations, whose
// ε is what those iterations released, and a rerun against the same checkpoint
// directory — at a different worker count — finishes bit-for-bit
// identical to a run that was never interrupted.
func TestTrainCancelResumesBitForBit(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	base := quickConfig(ModeDual)
	base.Workers = 1
	baseline, err := Train(context.Background(), train, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trap := &eventTrap{}
	canceled := base
	canceled.Workers = 3
	canceled.CheckpointDir = dir
	canceled.CheckpointEvery = 100 // only the cancel-time save may produce the resume point
	canceled.Observer = obs.Multi(trap, cancelAtIteration(cancel, 2))
	partial, err := Train(ctx, train, canceled)
	var cerr *CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError must unwrap to context.Canceled, got %v", err)
	}
	if cerr.Iter != 3 {
		t.Fatalf("canceled after %d iterations, want 3", cerr.Iter)
	}
	if cerr.CheckpointPath == "" {
		t.Fatal("cancel with a checkpoint dir must write a final checkpoint")
	}
	acct := baseline.Charge().Acct
	if got, want := partial.EpsilonSpent, acct.Epsilon(3, baseline.Config.Delta); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("partial ε = %v, want the 3-iteration spend %v (full run: %v)", got, want, baseline.EpsilonSpent)
	}
	if n := trap.count("canceled"); n != 1 {
		t.Fatalf("expected exactly one canceled event, got %d", n)
	}
	if got := len(partial.LossHistory); got != 3 {
		t.Fatalf("partial LossHistory has %d entries, want 3", got)
	}

	// Resume from the cancel checkpoint and require bit-identity with the
	// uninterrupted baseline.
	trap2 := &eventTrap{}
	resumed := canceled
	resumed.Workers = 2
	resumed.Observer = trap2
	got, err := Train(context.Background(), train, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if n := trap2.count("checkpoint_resumed"); n != 1 {
		t.Fatalf("expected exactly one resume event, got %d", n)
	}
	if n := trap2.count("iteration_end"); n != base.Iterations-3 {
		t.Fatalf("resumed run re-ran %d iterations, want %d", n, base.Iterations-3)
	}
	requireSameRun(t, train, baseline, got)
}

// A context dead before training starts cancels at iteration 0: no
// iterations ran, no ε was spent, no checkpoint exists to resume.
func TestTrainPreCanceled(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := quickConfig(ModeDual)
	cfg.CheckpointDir = t.TempDir()
	res, err := Train(ctx, train, cfg)
	var cerr *CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if cerr.Iter != 0 {
		t.Fatalf("Iter = %d, want 0", cerr.Iter)
	}
	if res.EpsilonSpent != 0 || len(res.LossHistory) != 0 {
		t.Fatalf("EpsilonSpent = %v, %d losses for zero iterations, want 0", res.EpsilonSpent, len(res.LossHistory))
	}
	if cerr.CheckpointPath != "" {
		t.Fatalf("zero-iteration cancel wrote checkpoint %q", cerr.CheckpointPath)
	}
	if files := checkpointFiles(t, cfg.CheckpointDir); len(files) != 0 {
		t.Fatalf("zero-iteration cancel left checkpoint files: %v", files)
	}
}
