package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace IDs %q, %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Fatalf("two minted IDs collide: %q", a)
	}
	if !ValidTraceID(a) {
		t.Fatalf("minted ID %q fails ValidTraceID", a)
	}
}

func TestValidTraceID(t *testing.T) {
	valid := []string{"a", "0123456789abcdef", "A-Z_z9", strings.Repeat("f", 64)}
	for _, id := range valid {
		if !ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = false, want true", id)
		}
	}
	invalid := []string{"", strings.Repeat("f", 65), "has space", "semi;colon", "tab\there", "slash/y", "é"}
	for _, id := range invalid {
		if ValidTraceID(id) {
			t.Errorf("ValidTraceID(%q) = true, want false", id)
		}
	}
}

func TestContextSpanHelpers(t *testing.T) {
	ctx := context.Background()
	if s := SpanFromContext(ctx); s != nil {
		t.Fatalf("SpanFromContext(empty) = %v, want nil", s)
	}
	// A nil span must not be stored: downstream code relies on
	// SpanFromContext == nil meaning "no parent".
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("ContextWithSpan(ctx, nil) should return ctx unchanged")
	}
	c := &collector{}
	root := StartSpanCtx(context.Background(), c, "root")
	ctx = ContextWithSpan(ctx, root)
	if s := SpanFromContext(ctx); s != root {
		t.Fatalf("SpanFromContext = %v, want the stored span", s)
	}
	if got := TraceFromContext(ctx); got != root.Trace() {
		t.Fatalf("TraceFromContext = %q, want span trace %q", got, root.Trace())
	}
}

func TestContextTraceHelpers(t *testing.T) {
	ctx := context.Background()
	if got := TraceFromContext(ctx); got != "" {
		t.Fatalf("TraceFromContext(empty) = %q, want \"\"", got)
	}
	if got := ContextWithTrace(ctx, ""); got != ctx {
		t.Fatal("ContextWithTrace(ctx, \"\") should return ctx unchanged")
	}
	ctx = ContextWithTrace(ctx, "deadbeefcafef00d")
	if got := TraceFromContext(ctx); got != "deadbeefcafef00d" {
		t.Fatalf("TraceFromContext = %q, want bare trace", got)
	}
	// A context span outranks the bare trace ID.
	c := &collector{}
	root := StartSpanCtx(context.Background(), c, "root")
	ctx = ContextWithSpan(ctx, root)
	if got := TraceFromContext(ctx); got != root.Trace() {
		t.Fatalf("TraceFromContext = %q, want span trace %q", got, root.Trace())
	}
}

func TestStartSpanCtxParenting(t *testing.T) {
	c := &collector{}

	// No context span, nil observer: nil (no-op) span.
	if s := StartSpanCtx(context.Background(), nil, "x"); s != nil {
		t.Fatalf("StartSpanCtx(no parent, nil observer) = %v, want nil", s)
	}

	// No context span, observer set, no context trace: fresh root trace.
	s1 := StartSpanCtx(context.Background(), c, "root1")
	if s1 == nil || s1.Trace() == "" {
		t.Fatal("root span should mint a trace")
	}

	// Context trace, no span: root joins the context trace.
	ctx := ContextWithTrace(context.Background(), "aaaabbbbccccdddd")
	s2 := StartSpanCtx(ctx, c, "root2")
	if got := s2.Trace(); got != "aaaabbbbccccdddd" {
		t.Fatalf("root trace = %q, want context trace", got)
	}

	// Context span: child of it, inheriting trace and observer even when
	// the observer argument is nil.
	ctx = ContextWithSpan(ctx, s2)
	child := StartSpanCtx(ctx, nil, "child")
	if child == nil {
		t.Fatal("child span is nil despite context parent")
	}
	if got := child.Trace(); got != s2.Trace() {
		t.Fatalf("child trace = %q, want parent trace %q", got, s2.Trace())
	}
	child.End()
	s2.End()

	// The emitted SpanStart for the child must carry the parent link.
	var childStart *SpanStart
	for _, e := range c.all() {
		if ev, ok := e.(SpanStart); ok && ev.Span == "child" {
			childStart = &ev
		}
	}
	if childStart == nil {
		t.Fatal("no SpanStart for child")
	}
	if childStart.Parent == 0 || childStart.Trace != s2.Trace() {
		t.Fatalf("child SpanStart = %+v, want parent of %q in trace %q", childStart, "root2", s2.Trace())
	}
}

func TestSpanTraceInheritance(t *testing.T) {
	c := &collector{}
	root := StartSpanCtx(context.Background(), c, "root")
	child := root.Child("child")
	grand := child.Child("grand")
	if root.Trace() == "" {
		t.Fatal("root has no trace")
	}
	if child.Trace() != root.Trace() || grand.Trace() != root.Trace() {
		t.Fatalf("traces diverge: root=%q child=%q grand=%q", root.Trace(), child.Trace(), grand.Trace())
	}
	grand.End()
	child.End()
	root.End()
	for _, e := range c.all() {
		switch ev := e.(type) {
		case SpanStart:
			if ev.Trace != root.Trace() {
				t.Errorf("SpanStart %q trace = %q, want %q", ev.Span, ev.Trace, root.Trace())
			}
		case SpanEnd:
			if ev.Trace != root.Trace() {
				t.Errorf("SpanEnd %q trace = %q, want %q", ev.Span, ev.Trace, root.Trace())
			}
		}
	}
}

func TestJSONLSinkTraceStamp(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.SetTrace("feedfacefeedface")
	span := StartSpanCtx(context.Background(), sink, "work")
	span.End()
	Emit(sink, IterationEnd{Iter: 1, Loss: 0.5})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("journal lines = %d, want 3", len(lines))
	}
	for i, line := range lines {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rec.Trace != "feedfacefeedface" {
			t.Errorf("line %d trace = %q, want the sink trace", i, rec.Trace)
		}
	}
}

func TestSlowSpanWatchdogOnEnd(t *testing.T) {
	c := &collector{}
	w := NewSlowSpanWatchdog(5*time.Millisecond, c)
	defer w.Close()

	fast := StartSpanCtx(context.Background(), w, "fast")
	fast.End()
	slow := StartSpanCtx(context.Background(), w, "slow")
	time.Sleep(10 * time.Millisecond)
	slow.End()
	w.Close()

	var slows []SpanSlow
	for _, e := range c.all() {
		if ev, ok := e.(SpanSlow); ok {
			slows = append(slows, ev)
		}
	}
	if len(slows) != 1 {
		t.Fatalf("SpanSlow events = %d, want exactly 1 (got %+v)", len(slows), slows)
	}
	ev := slows[0]
	if ev.Span != "slow" || ev.Trace != slow.Trace() {
		t.Fatalf("SpanSlow = %+v, want span %q in trace %q", ev, "slow", slow.Trace())
	}
	if ev.Elapsed <= ev.Threshold {
		t.Fatalf("SpanSlow elapsed %v not past threshold %v", ev.Elapsed, ev.Threshold)
	}
}

func TestSlowSpanWatchdogInFlight(t *testing.T) {
	c := &collector{}
	w := NewSlowSpanWatchdog(5*time.Millisecond, c)
	defer w.Close()

	hung := StartSpanCtx(context.Background(), w, "hung")
	// The background scanner runs every max(threshold/2, 10ms); give it a
	// few periods to flag the still-open span.
	deadline := time.Now().Add(2 * time.Second)
	reported := func() bool {
		for _, e := range c.all() {
			if ev, ok := e.(SpanSlow); ok && ev.Span == "hung" {
				return true
			}
		}
		return false
	}
	for !reported() {
		if time.Now().After(deadline) {
			t.Fatal("in-flight slow span never reported")
		}
		time.Sleep(5 * time.Millisecond)
	}
	hung.End()
	w.Close()

	// SpanEnd must not double-report the already-flagged span.
	n := 0
	for _, e := range c.all() {
		if ev, ok := e.(SpanSlow); ok && ev.Span == "hung" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("SpanSlow for hung span reported %d times, want 1", n)
	}
}

// journalFor builds an in-memory journal by running fn against a sink.
func journalFor(t *testing.T, trace string, fn func(o Observer)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	if trace != "" {
		sink.SetTrace(trace)
	}
	fn(sink)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestWriteChromeTraceRoundTrip(t *testing.T) {
	journal := journalFor(t, "", func(o Observer) {
		root := StartSpanCtx(context.Background(), o, "train")
		m1 := root.Child("module1")
		m1.End()
		Emit(o, IterationEnd{Iter: 0, Loss: 1.5, EpsilonSpent: 0.1})
		Emit(o, CheckpointSaved{Iter: 10, Bytes: 128})
		Emit(o, SpanSlow{ID: root.id, Trace: root.Trace(), Span: "train",
			Elapsed: 2 * time.Second, Threshold: time.Second})
		root.End()
	})

	var out bytes.Buffer
	if err := WriteChromeTrace(bytes.NewReader(journal.Bytes()), &out, ""); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("converter output fails validation: %v\n%s", err, out.String())
	}

	var doc chromeTrace
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// 2 spans × B/E + 2 counters + 1 checkpoint instant + 1 slow instant.
	if got := len(doc.TraceEvents); got != 8 {
		t.Fatalf("traceEvents = %d, want 8:\n%s", got, out.String())
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
		if ev.TS < 0 {
			t.Errorf("event %q has negative ts %v", ev.Name, ev.TS)
		}
	}
	if phases["B"] != 2 || phases["E"] != 2 || phases["C"] != 2 || phases["i"] != 2 {
		t.Fatalf("phase counts = %v, want B:2 E:2 C:2 i:2", phases)
	}
	// Sequential child nests on the parent's virtual thread.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" && ev.Tid != 1 {
			t.Errorf("span %q opened on tid %d, want 1 (sequential nesting)", ev.Name, ev.Tid)
		}
	}
}

func TestWriteChromeTraceConcurrentSiblings(t *testing.T) {
	// Two children open before either closes: the second cannot ride the
	// parent's tid (the first is innermost there) and gets its own row.
	journal := journalFor(t, "", func(o Observer) {
		root := StartSpanCtx(context.Background(), o, "root")
		a := root.Child("a")
		b := root.Child("b")
		a.End()
		b.End()
		root.End()
	})
	var out bytes.Buffer
	if err := WriteChromeTrace(bytes.NewReader(journal.Bytes()), &out, ""); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("concurrent-sibling trace fails validation: %v\n%s", err, out.String())
	}
	var doc chromeTrace
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	tidOf := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" {
			tidOf[ev.Name] = ev.Tid
		}
	}
	if tidOf["a"] != tidOf["root"] {
		t.Errorf("first child on tid %d, want parent's tid %d", tidOf["a"], tidOf["root"])
	}
	if tidOf["b"] == tidOf["root"] {
		t.Errorf("second concurrent child shares the parent's tid %d; want its own", tidOf["b"])
	}
}

func TestWriteChromeTraceFilter(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	keepRoot := startRoot(sink, "keep", "1111111111111111")
	keepRoot.End()
	dropRoot := startRoot(sink, "drop", "2222222222222222")
	dropRoot.End()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := WriteChromeTrace(bytes.NewReader(buf.Bytes()), &out, "1111111111111111"); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("filtered traceEvents = %d, want 2 (one B/E pair):\n%s", len(doc.TraceEvents), out.String())
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name != "keep" && ev.Ph != "E" {
			t.Errorf("event %+v leaked through the trace filter", ev)
		}
	}
}

func TestWriteChromeTraceSkipsGarbageAndTruncation(t *testing.T) {
	journal := journalFor(t, "", func(o Observer) {
		s := StartSpanCtx(context.Background(), o, "ok")
		s.End()
	})
	// Garbage line plus an end-without-start (truncated journal head).
	journal.WriteString("not json at all\n")
	orphan := journalFor(t, "", func(o Observer) {
		Emit(o, SpanEnd{ID: 999999, Span: "orphan", Elapsed: time.Second})
	})
	journal.Write(orphan.Bytes())

	var out bytes.Buffer
	if err := WriteChromeTrace(bytes.NewReader(journal.Bytes()), &out, ""); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("output fails validation: %v", err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("traceEvents = %d, want 2 (orphan E and garbage dropped)", len(doc.TraceEvents))
	}
}

func TestWriteChromeTraceEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := WriteChromeTrace(strings.NewReader(""), &out, ""); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("empty trace fails validation: %v", err)
	}
	if !strings.Contains(out.String(), `"traceEvents":[]`) {
		t.Fatalf("empty input should still emit a traceEvents array, got %s", out.String())
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	bad := []struct {
		name, doc string
	}{
		{"not json", "nope"},
		{"missing array", `{"displayTimeUnit":"ms"}`},
		{"unknown phase", `{"traceEvents":[{"ph":"Z","ts":0,"pid":1,"tid":1,"name":"x"}]}`},
		{"negative ts", `{"traceEvents":[{"ph":"B","ts":-5,"pid":1,"tid":1,"name":"x"}]}`},
		{"nameless B", `{"traceEvents":[{"ph":"B","ts":0,"pid":1,"tid":1}]}`},
		{"E without B", `{"traceEvents":[{"ph":"E","ts":0,"pid":1,"tid":1}]}`},
		{"mismatched E", `{"traceEvents":[{"ph":"B","ts":0,"pid":1,"tid":1,"name":"a"},{"ph":"E","ts":1,"pid":1,"tid":1,"name":"b"}]}`},
	}
	for _, tc := range bad {
		if err := ValidateChromeTrace(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	// A span left open at EOF is a killed run, not an error.
	ok := `{"traceEvents":[{"ph":"B","ts":0,"pid":1,"tid":1,"name":"x"}]}`
	if err := ValidateChromeTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("open span at EOF rejected: %v", err)
	}
}
