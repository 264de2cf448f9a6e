package privim

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"privim/internal/obs"
)

// eventCollector is a threadsafe recording observer.
type eventCollector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *eventCollector) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *eventCollector) all() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.Event(nil), c.events...)
}

// TestTrainEmitsEventStream is the observability smoke test of the
// acceptance criteria: a Train run with an observer attached must emit a
// balanced span tree covering Modules 1–3 and one IterationEnd per
// iteration with a monotone ε trajectory ending at Result.EpsilonSpent.
func TestTrainEmitsEventStream(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	cfg := quickConfig(ModeDual)
	c := &eventCollector{}
	cfg.Observer = c

	res, err := Train(context.Background(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	events := c.all()
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}

	// Span open/close balance + the Module 1–3 coverage.
	open := map[uint64]obs.SpanStart{}
	closed := map[string]int{}
	for _, e := range events {
		switch ev := e.(type) {
		case obs.SpanStart:
			if _, dup := open[ev.ID]; dup {
				t.Fatalf("span ID %d opened twice", ev.ID)
			}
			open[ev.ID] = ev
		case obs.SpanEnd:
			st, ok := open[ev.ID]
			if !ok {
				t.Fatalf("SpanEnd %d (%s) without matching SpanStart", ev.ID, ev.Span)
			}
			if st.Span != ev.Span || st.Parent != ev.Parent {
				t.Fatalf("span %d start/end mismatch: %+v vs %+v", ev.ID, st, ev)
			}
			delete(open, ev.ID)
			closed[ev.Span]++
		}
	}
	if len(open) != 0 {
		t.Fatalf("unbalanced span tree, still open: %v", open)
	}
	for _, name := range []string{"train", "module1.extract", "module2.account", "module3.dpsgd"} {
		if closed[name] != 1 {
			t.Fatalf("span %q closed %d times, want 1 (closed=%v)", name, closed[name], closed)
		}
	}

	// One IterationEnd per iteration, ε monotone nondecreasing and equal
	// bit for bit to the accountant's ε after t+1 iterations, final ε
	// equal to the result's accounting.
	var iters []obs.IterationEnd
	for _, e := range events {
		if ev, ok := e.(obs.IterationEnd); ok {
			iters = append(iters, ev)
		}
	}
	if len(iters) != cfg.Iterations {
		t.Fatalf("got %d IterationEnd events, want %d", len(iters), cfg.Iterations)
	}
	if !res.Private {
		t.Fatal("private run has no accountant")
	}
	acct := res.Charge().Acct
	prevEps := 0.0
	for i, ev := range iters {
		if ev.Iter != i {
			t.Fatalf("IterationEnd %d has Iter=%d", i, ev.Iter)
		}
		if ev.EpsilonSpent < prevEps {
			t.Fatalf("epsilon not monotone: iter %d spent %v after %v", i, ev.EpsilonSpent, prevEps)
		}
		prevEps = ev.EpsilonSpent
		if ev.Loss != res.LossHistory[i] {
			t.Fatalf("iter %d loss %v != LossHistory %v", i, ev.Loss, res.LossHistory[i])
		}
		if want := acct.Epsilon(i+1, res.Config.Delta); math.Float64bits(ev.EpsilonSpent) != math.Float64bits(want) {
			t.Fatalf("iter %d spent %v, accountant says %v after %d iterations", i, ev.EpsilonSpent, want, i+1)
		}
		if ev.GradNorm < 0 || ev.ClipFraction < 0 || ev.ClipFraction > 1 {
			t.Fatalf("iter %d has implausible telemetry: %+v", i, ev)
		}
	}
	if math.Float64bits(prevEps) != math.Float64bits(res.EpsilonSpent) {
		t.Fatalf("final IterationEnd eps %v != Result.EpsilonSpent %v", prevEps, res.EpsilonSpent)
	}

	// Module 1 telemetry: the dual-stage sampler reports its SCS stage
	// (BES only runs when a boundary remains).
	stages := map[string]obs.ExtractionDone{}
	for _, e := range events {
		if ev, ok := e.(obs.ExtractionDone); ok {
			stages[ev.Stage] = ev
		}
	}
	scs, ok := stages["scs"]
	if !ok {
		t.Fatalf("no scs ExtractionDone event (stages=%v)", stages)
	}
	if scs.Subgraphs == 0 || scs.Walks == 0 {
		t.Fatalf("empty scs telemetry: %+v", scs)
	}
	if scs.MaxOccurrence > cfg.Threshold {
		t.Fatalf("scs max occurrence %d breaches threshold %d", scs.MaxOccurrence, cfg.Threshold)
	}
}

// TestTrainObserverDoesNotPerturbRun pins the zero-interference contract:
// attaching an observer must not change the training trajectory.
func TestTrainObserverDoesNotPerturbRun(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G

	plain, err := Train(context.Background(), train, quickConfig(ModeDual))
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(ModeDual)
	cfg.Observer = &eventCollector{}
	observed, err := Train(context.Background(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.LossHistory, observed.LossHistory) {
		t.Fatalf("observer changed the run:\nplain    = %v\nobserved = %v",
			plain.LossHistory, observed.LossHistory)
	}
	if plain.EpsilonSpent != observed.EpsilonSpent {
		t.Fatalf("observer changed accounting: %v vs %v", plain.EpsilonSpent, observed.EpsilonSpent)
	}
}
