package im

import (
	"context"
	"errors"
	"testing"

	"privim/internal/diffusion"
	"privim/internal/graph"
)

// Each solver's SelectContext must return the same seeds as Select when
// it completes, and a typed *CanceledError (unwrapping to the context
// error) on a dead context.
func TestSelectContextSolvers(t *testing.T) {
	g := twoStars()
	model := &diffusion.IC{G: g}
	solvers := []struct {
		name   string
		plain  func(k int) []graph.NodeID
		ctxSel func(ctx context.Context, k int) ([]graph.NodeID, error)
	}{
		{
			name: "celf",
			plain: func(k int) []graph.NodeID {
				return (&CELF{Model: model, Rounds: 10, Seed: 1, NumNodes: g.NumNodes()}).Select(k)
			},
			ctxSel: func(ctx context.Context, k int) ([]graph.NodeID, error) {
				return (&CELF{Model: model, Rounds: 10, Seed: 1, NumNodes: g.NumNodes()}).SelectContext(ctx, k)
			},
		},
		{
			name: "ris",
			plain: func(k int) []graph.NodeID {
				return (&RIS{G: g, Samples: 200, Seed: 1}).Select(k)
			},
			ctxSel: func(ctx context.Context, k int) ([]graph.NodeID, error) {
				return (&RIS{G: g, Samples: 200, Seed: 1}).SelectContext(ctx, k)
			},
		},
		{
			name: "imm",
			plain: func(k int) []graph.NodeID {
				return (&IMM{G: g, Seed: 1}).Select(k)
			},
			ctxSel: func(ctx context.Context, k int) ([]graph.NodeID, error) {
				return (&IMM{G: g, Seed: 1}).SelectContext(ctx, k)
			},
		},
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range solvers {
		want := s.plain(2)
		got, err := s.ctxSel(context.Background(), 2)
		if err != nil {
			t.Fatalf("%s: SelectContext(Background): %v", s.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: SelectContext returned %v, Select returned %v", s.name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: seed %d diverges: SelectContext %v vs Select %v", s.name, i, got, want)
			}
		}

		_, err = s.ctxSel(dead, 2)
		var cerr *CanceledError
		if !errors.As(err, &cerr) {
			t.Fatalf("%s: canceled err = %v, want *CanceledError", s.name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: CanceledError must unwrap to context.Canceled, got %v", s.name, err)
		}
		if cerr.K != 2 {
			t.Fatalf("%s: CanceledError.K = %d, want 2", s.name, cerr.K)
		}
	}
}
