package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// collector is a threadsafe test observer.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) Emit(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collector) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{math.Inf(-1), 0},
		{-3, 0},
		{0, 0},
		{0.999, 0},
		{1, 1}, // [1, 2)
		{1.999, 1},
		{2, 2}, // [2, 4)
		{3.999, 2},
		{4, 3},
		{1023.9, 10},
		{1024, 11},
		{math.Ldexp(1, NumBuckets-2) - 1, NumBuckets - 2}, // last finite bucket
		{math.Ldexp(1, NumBuckets-2), NumBuckets - 1},     // overflow bucket
		{1e300, NumBuckets - 1},
		{math.Inf(1), NumBuckets - 1},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land strictly below its bucket's upper bound and
	// (for buckets > 0) at or above the previous bound.
	for _, v := range []float64{0.5, 1, 1.5, 2, 7, 100, 1 << 20, 1 << 30} {
		i := BucketIndex(v)
		if v >= BucketUpper(i) {
			t.Errorf("value %v in bucket %d breaches upper bound %v", v, i, BucketUpper(i))
		}
		if i > 0 && v < BucketUpper(i-1) {
			t.Errorf("value %v in bucket %d is below lower bound %v", v, i, BucketUpper(i-1))
		}
	}
}

func TestBucketUpperPanics(t *testing.T) {
	for _, i := range []int{-1, NumBuckets} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BucketUpper(%d) did not panic", i)
				}
			}()
			BucketUpper(i)
		}()
	}
}

func TestCounterConcurrent(t *testing.T) {
	const goroutines, perG = 16, 2000
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	const goroutines, perG = 8, 1000
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				h.Observe(float64(j % 64))
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	var bucketTotal uint64
	for _, b := range h.Buckets() {
		bucketTotal += b
	}
	if bucketTotal != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, goroutines*perG)
	}
	wantSum := 0.0
	for j := 0; j < perG; j++ {
		wantSum += float64(j % 64)
	}
	wantSum *= goroutines
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramMerge(t *testing.T) {
	var h Histogram
	h.Observe(3)
	var batch [NumBuckets]uint64
	batch[BucketIndex(5)] = 2
	batch[BucketIndex(100)] = 1
	h.Merge(batch, 110)
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got := h.Sum(); got != 113 {
		t.Fatalf("sum = %v, want 113", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		SpanStart{ID: 1, Span: "train"},
		SpanStart{ID: 2, Parent: 1, Span: "module1.extract"},
		SpanEnd{ID: 2, Parent: 1, Span: "module1.extract", Elapsed: 42 * time.Millisecond},
		IterationEnd{Iter: 3, Loss: 0.5, GradNorm: 1.25, ClipFraction: 0.75, EpsilonSpent: 2.5},
		MCBatchDone{Model: "ic", Rounds: 100, MeanSpread: 7.5, Elapsed: time.Second, SimsPerSec: 100},
		SeedSelected{K: 2, Node: 17, MarginalGain: 3.5, Evaluations: 40, LookupsSaved: 360},
		ExtractionDone{Stage: "scs", Subgraphs: 12, Walks: 30, MaxOccurrence: 4},
		ParallelFor{Site: "train.dpsgd", Workers: 4, Tasks: 64, Chunks: 16, Imbalance: 0.25, Elapsed: time.Millisecond},
		CheckpointSaved{Iter: 10, Path: "ckpt-00000010.ckpt", Bytes: 4096, Elapsed: 3 * time.Millisecond},
		CheckpointResumed{Iter: 10, Path: "ckpt-00000010.ckpt"},
		CheckpointRejected{Path: "ckpt-00000012.ckpt", Reason: "truncated"},
		SpanEnd{ID: 1, Span: "train", Elapsed: time.Second},
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var decoded []Event
	for sc.Scan() {
		// Each line must be standalone valid JSON.
		var raw map[string]any
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		ev, ts, err := DecodeRecord(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if ts.IsZero() {
			t.Fatal("zero timestamp")
		}
		decoded = append(decoded, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i, want := range events {
		// DecodeRecord returns pointers; dereference for comparison.
		got := reflect.ValueOf(decoded[i]).Elem().Interface()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("event %d: got %+v, want %+v", i, got, want)
		}
		if decoded[i].EventKind() != want.EventKind() {
			t.Errorf("event %d kind: got %q want %q", i, decoded[i].EventKind(), want.EventKind())
		}
	}
}

func TestDecodeRecordUnknownKind(t *testing.T) {
	if _, _, err := DecodeRecord([]byte(`{"event":"nope","ts_unix_ns":1,"data":{}}`)); err == nil {
		t.Fatal("want error for unknown event kind")
	}
}

func TestSpanNesting(t *testing.T) {
	c := &collector{}
	root := StartSpanCtx(context.Background(), c, "train")
	m1 := root.Child("module1")
	m1.End()
	m2 := root.Child("module2")
	m2.End()
	root.End()

	events := c.all()
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	open := map[uint64]SpanStart{}
	for _, e := range events {
		switch ev := e.(type) {
		case SpanStart:
			open[ev.ID] = ev
		case SpanEnd:
			st, ok := open[ev.ID]
			if !ok {
				t.Fatalf("SpanEnd %d without SpanStart", ev.ID)
			}
			if st.Parent != ev.Parent || st.Span != ev.Span {
				t.Fatalf("span %d start/end mismatch: %+v vs %+v", ev.ID, st, ev)
			}
			delete(open, ev.ID)
		}
	}
	if len(open) != 0 {
		t.Fatalf("unbalanced spans: %v", open)
	}
	// Children must reference the root's ID.
	rootStart := events[0].(SpanStart)
	for _, e := range events[1:] {
		if st, ok := e.(SpanStart); ok && st.Parent != rootStart.ID {
			t.Fatalf("child %q parent = %d, want %d", st.Span, st.Parent, rootStart.ID)
		}
	}
}

func TestNilSpanAndEmit(t *testing.T) {
	// All no-op paths must be safe on nil receivers/observers.
	s := StartSpanCtx(context.Background(), nil, "x")
	if s != nil {
		t.Fatal("StartSpanCtx(context.Background(), nil) should return nil")
	}
	s.Child("y").End()
	s.End()
	Emit(nil, IterationEnd{Iter: 1})

	if n := testing.AllocsPerRun(200, func() {
		Emit(nil, IterationEnd{Iter: 2, Loss: 0.1})
		StartSpanCtx(context.Background(), nil, "z").End()
	}); n != 0 {
		t.Fatalf("nil-observer emit allocates %v times", n)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil {
		t.Fatal("Multi() should be nil")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi(nil, nil) should be nil")
	}
	c := &collector{}
	if got := Multi(nil, c); got != Observer(c) {
		t.Fatal("Multi with one live observer should return it directly")
	}
	c2 := &collector{}
	m := Multi(c, c2)
	m.Emit(IterationEnd{Iter: 7})
	if len(c.all()) != 1 || len(c2.all()) != 1 {
		t.Fatal("fan-out did not reach both observers")
	}
}

// TestDecodeRecordAcceptsNoisyLoss: iteration_end records written while
// the event still carried the post-update noisy_loss field decode, with
// every remaining field intact.
func TestDecodeRecordAcceptsNoisyLoss(t *testing.T) {
	line := []byte(`{"event":"iteration_end","ts_unix_ns":1000,"data":{"iter":2,"loss":0.5,"noisy_loss":0.6,"grad_norm":1.25,"clip_fraction":0.75,"epsilon_spent":2.5}}`)
	ev, _, err := DecodeRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	want := &IterationEnd{Iter: 2, Loss: 0.5, GradNorm: 1.25, ClipFraction: 0.75, EpsilonSpent: 2.5}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("decoded %+v, want %+v", ev, want)
	}
}

// TestDecodeRecordAcceptsRNGDraws: checkpoint_resumed records written
// while checkpoints stored a training-stream position still decode, with
// the rng_draws field dropped.
func TestDecodeRecordAcceptsRNGDraws(t *testing.T) {
	line := []byte(`{"event":"checkpoint_resumed","ts_unix_ns":1000,"data":{"iter":4,"path":"ckpt-00000004.ckpt","rng_draws":12345}}`)
	ev, _, err := DecodeRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	want := &CheckpointResumed{Iter: 4, Path: "ckpt-00000004.ckpt"}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("decoded %+v, want %+v", ev, want)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Emit(SpanStart{ID: 1, Span: "train"})
	r.Emit(SpanEnd{ID: 1, Span: "train", Elapsed: 3 * time.Millisecond})
	r.Emit(IterationEnd{Iter: 0, Loss: 0.25, GradNorm: 2, ClipFraction: 0.5, EpsilonSpent: 1.5})
	r.Emit(IterationEnd{Iter: 1, Loss: 0.2, GradNorm: 3, ClipFraction: 0.25, EpsilonSpent: 2})
	r.Emit(MCBatchDone{Model: "ic", Rounds: 50, MeanSpread: 4, SimsPerSec: 1000})
	r.Emit(SeedSelected{K: 1, Node: 3, MarginalGain: 9, Evaluations: 10, LookupsSaved: 0})
	r.Emit(ExtractionDone{Stage: "scs", Subgraphs: 8, Walks: 20, MaxOccurrence: 4})

	if got := r.Counter("train.iterations").Value(); got != 2 {
		t.Fatalf("train.iterations = %d, want 2", got)
	}
	if got := r.Gauge("train.epsilon_spent").Value(); got != 2 {
		t.Fatalf("train.epsilon_spent = %v, want 2", got)
	}
	if got := r.Counter("diffusion.simulations").Value(); got != 50 {
		t.Fatalf("diffusion.simulations = %d, want 50", got)
	}
	// span.open is a gauge balancing starts against ends: one matched
	// pair nets to zero, and the closed counter records the completion.
	if got := r.Gauge("span.open").Value(); got != 0 {
		t.Fatalf("span.open = %v, want 0", got)
	}
	if got := r.Counter("span.closed").Value(); got != 1 {
		t.Fatalf("span.closed = %d, want 1", got)
	}
	// The snapshot must serialize cleanly (it backs the expvar export).
	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("train.epsilon_spent")) {
		t.Fatalf("snapshot JSON missing train.epsilon_spent: %s", data)
	}
	// Loss, gradient norm, clip fraction and the extraction statistics
	// are unnoised statistics of private training; no registry series
	// may carry them.
	for _, name := range []string{
		"train.loss", "train.grad_norm", "train.clip_fraction",
		"sampling.subgraphs", "sampling.walks", "sampling.max_occurrence",
		"sampling.walk_len", "sampling.occurrences",
	} {
		if _, ok := snap[name]; ok {
			t.Fatalf("registry publishes %s: %s", name, data)
		}
	}
}

func TestRegistryPublish(t *testing.T) {
	r := NewRegistry()
	if err := r.Publish("obs_test_registry"); err != nil {
		t.Fatal(err)
	}
	if err := r.Publish("obs_test_registry"); err == nil {
		t.Fatal("duplicate Publish should error, not panic")
	}
}

func TestGaugeAddIncDec(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Add(2.5)
	g.Dec()
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}

	// Concurrent up/down movements must balance exactly (integer deltas
	// stay exact in float64).
	var c Gauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				c.Dec()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 0 {
		t.Fatalf("balanced inc/dec gauge = %v, want 0", got)
	}
}

func TestRegistryCheckpointEvents(t *testing.T) {
	r := NewRegistry()
	r.Emit(CheckpointSaved{Iter: 4, Path: "a", Bytes: 128, Elapsed: time.Millisecond})
	r.Emit(CheckpointSaved{Iter: 8, Path: "b", Bytes: 128, Elapsed: time.Millisecond})
	r.Emit(CheckpointRejected{Path: "b", Reason: "truncated"})
	r.Emit(CheckpointResumed{Iter: 4, Path: "a"})
	if got := r.Counter("train.checkpoint.saved").Value(); got != 2 {
		t.Fatalf("saved counter = %d, want 2", got)
	}
	if got := r.Counter("train.checkpoint.rejected").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if got := r.Counter("train.checkpoint.resumed").Value(); got != 1 {
		t.Fatalf("resumed counter = %d, want 1", got)
	}
	if got := r.Gauge("train.checkpoint.iter").Value(); got != 4 {
		t.Fatalf("checkpoint iter gauge = %v, want 4 (resume overwrote)", got)
	}
	if got := r.Histogram("train.checkpoint.bytes").Count(); got != 2 {
		t.Fatalf("bytes histogram count = %d, want 2", got)
	}
}
