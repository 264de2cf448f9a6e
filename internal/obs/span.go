package obs

import (
	"sync/atomic"
	"time"
)

// spanSeq issues process-unique span IDs (starting at 1; 0 means "no
// parent").
var spanSeq atomic.Uint64

// Span is a running timed section. Spans nest explicitly via Child, so
// concurrent children of one parent are well-defined without any
// goroutine-local state. Every span belongs to a trace: roots mint (or
// inherit from the context) a trace ID, children share their parent's,
// and both SpanStart and SpanEnd events carry it. A nil *Span (what
// StartSpanCtx returns for a nil observer) is a valid no-op receiver for
// Child, End, Trace, and Observer, which keeps instrumentation sites
// branch-free.
type Span struct {
	o      Observer
	id     uint64
	parent uint64
	trace  string
	name   string
	start  time.Time
}

// startRoot opens a root span in the given trace ("" mints a new one).
func startRoot(o Observer, name, trace string) *Span {
	if trace == "" {
		trace = NewTraceID()
	}
	s := &Span{o: o, id: spanSeq.Add(1), trace: trace, name: name, start: time.Now()}
	o.Emit(SpanStart{ID: s.id, Trace: trace, Span: name})
	return s
}

// Child opens a nested span under s, in s's trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{o: s.o, id: spanSeq.Add(1), parent: s.id, trace: s.trace, name: name, start: time.Now()}
	s.o.Emit(SpanStart{ID: c.id, Parent: s.id, Trace: s.trace, Span: name})
	return c
}

// End closes the span, emitting SpanEnd with the elapsed wall time.
// Safe to call on a nil span; calling End twice emits twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.o.Emit(SpanEnd{ID: s.id, Parent: s.parent, Trace: s.trace, Span: s.name, Elapsed: time.Since(s.start)})
}

// Trace returns the span's trace ID ("" for a nil span).
func (s *Span) Trace() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// Observer returns the observer the span emits to (nil for a nil span),
// so helpers holding only a span — im's forObserved, for example —
// can emit sibling events into the same stream.
func (s *Span) Observer() Observer {
	if s == nil {
		return nil
	}
	return s.o
}
