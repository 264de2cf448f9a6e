package diffusion

import (
	"context"
	"errors"
	"math"
	"testing"

	"privim/internal/graph"
)

// A completed Estimate under a cancelable context is bit-identical to one
// under context.Background: the cancellation plumbing must not perturb
// the RNG streams or the reduction, serial or fanned out.
func TestEstimateContextMatchesEstimate(t *testing.T) {
	g := lineGraph(40, 0.4)
	ic := &IC{G: g}
	seeds := []graph.NodeID{0, 1, 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 4} {
		want, err := Estimate(context.Background(), ic, seeds, 50, 7, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: Background: %v", workers, err)
		}
		got, err := Estimate(ctx, ic, seeds, 50, 7, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: cancelable: %v", workers, err)
		}
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("workers=%d: cancelable = %v, Background = %v — must be bit-identical", workers, got, want)
		}
	}
}

func TestEstimateContextCanceled(t *testing.T) {
	g := lineGraph(40, 0.4)
	ic := &IC{G: g}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Estimate(ctx, ic, []graph.NodeID{0, 1, 2}, 50, 7, Options{})
	var cerr *CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError must unwrap to context.Canceled, got %v", err)
	}
	if cerr.Total != 50 {
		t.Fatalf("Total = %d, want 50", cerr.Total)
	}
	if cerr.Done != 0 {
		t.Fatalf("Done = %d rounds on a pre-canceled context, want 0", cerr.Done)
	}
}
