package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Chrome trace-event export: converts a JSONL run journal into the
// trace-event JSON format Perfetto and chrome://tracing open directly —
// span_start/span_end pairs become nested "B"/"E" duration events,
// iteration_end becomes "C" counter tracks (loss and ε curves), and
// checkpoint/slow-span events become "i" instants. The converter is the
// engine behind `privim -trace-out` and `cmd/tracecat`.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// tidAllocator lays concurrent spans out on virtual threads so B/E
// events nest properly: a span runs on its parent's tid when the parent
// is the innermost open span there (sequential nesting), otherwise on a
// reused-idle or fresh tid (parallel siblings each get their own row).
type tidAllocator struct {
	stacks map[int][]uint64 // tid -> open span stack
	tidOf  map[uint64]int   // span id -> tid
	next   int
}

func newTidAllocator() *tidAllocator {
	return &tidAllocator{stacks: make(map[int][]uint64), tidOf: make(map[uint64]int), next: 1}
}

func (a *tidAllocator) open(id, parent uint64) int {
	if parent != 0 {
		if tid, ok := a.tidOf[parent]; ok {
			if st := a.stacks[tid]; len(st) > 0 && st[len(st)-1] == parent {
				a.stacks[tid] = append(st, id)
				a.tidOf[id] = tid
				return tid
			}
		}
	}
	// Roots and out-of-stack children: lowest idle tid, else a fresh one.
	tid := 0
	for t := 1; t < a.next; t++ {
		if len(a.stacks[t]) == 0 {
			tid = t
			break
		}
	}
	if tid == 0 {
		tid = a.next
		a.next++
	}
	a.stacks[tid] = append(a.stacks[tid], id)
	a.tidOf[id] = tid
	return tid
}

// close pops the span from its tid's stack and returns the tid (-1 when
// the span was never opened — a journal truncated mid-trace).
func (a *tidAllocator) close(id uint64) int {
	tid, ok := a.tidOf[id]
	if !ok {
		return -1
	}
	delete(a.tidOf, id)
	st := a.stacks[tid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == id {
			a.stacks[tid] = append(st[:i], st[i+1:]...)
			break
		}
	}
	return tid
}

// WriteChromeTrace converts a JSONL run journal into Chrome trace-event
// JSON. traceFilter, when non-empty, keeps only records of that trace ID
// (matching either the record stamp or the span payload); "" converts
// everything. Timestamps are rebased so the first record is t=0.
// Unparseable journal lines are skipped, mirroring the forgiving journal
// readers elsewhere in the repo; an input with no convertible events
// still produces a valid (empty) trace document.
func WriteChromeTrace(journal io.Reader, w io.Writer, traceFilter string) error {
	out := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	tids := newTidAllocator()
	var t0 int64
	sc := bufio.NewScanner(journal)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, ts, err := DecodeRecord(line)
		if err != nil {
			continue
		}
		if t0 == 0 {
			t0 = ts.UnixNano()
		}
		us := float64(ts.UnixNano()-t0) / float64(time.Microsecond)
		var rec Record
		_ = json.Unmarshal(line, &rec) // DecodeRecord already parsed it
		switch e := ev.(type) {
		case *SpanStart:
			if !traceMatch(traceFilter, rec.Trace, e.Trace) {
				continue
			}
			tid := tids.open(e.ID, e.Parent)
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Span, Cat: "span", Ph: "B", TS: us, Pid: 1, Tid: tid,
				Args: map[string]any{"id": e.ID, "parent": e.Parent, "trace": spanTrace(rec.Trace, e.Trace)},
			})
		case *SpanEnd:
			if !traceMatch(traceFilter, rec.Trace, e.Trace) {
				continue
			}
			tid := tids.close(e.ID)
			if tid < 0 {
				continue // end without a start: truncated journal head
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Span, Cat: "span", Ph: "E", TS: us, Pid: 1, Tid: tid,
			})
		case *SpanSlow:
			if !traceMatch(traceFilter, rec.Trace, e.Trace) {
				continue
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "slow: " + e.Span, Cat: "watchdog", Ph: "i", TS: us, Pid: 1, Tid: 1, S: "g",
				Args: map[string]any{"elapsed_ms": e.Elapsed.Milliseconds(), "threshold_ms": e.Threshold.Milliseconds()},
			})
		case *IterationEnd:
			if !traceMatch(traceFilter, rec.Trace, "") {
				continue
			}
			out.TraceEvents = append(out.TraceEvents,
				chromeEvent{Name: "train.loss", Ph: "C", TS: us, Pid: 1, Tid: 1,
					Args: map[string]any{"loss": e.Loss}},
				chromeEvent{Name: "train.epsilon", Ph: "C", TS: us, Pid: 1, Tid: 1,
					Args: map[string]any{"epsilon_spent": e.EpsilonSpent}},
			)
		case *CheckpointSaved:
			if !traceMatch(traceFilter, rec.Trace, "") {
				continue
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "checkpoint_saved", Cat: "checkpoint", Ph: "i", TS: us, Pid: 1, Tid: 1, S: "g",
				Args: map[string]any{"iter": e.Iter, "bytes": e.Bytes},
			})
		case *CheckpointResumed:
			if !traceMatch(traceFilter, rec.Trace, "") {
				continue
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "checkpoint_resumed", Cat: "checkpoint", Ph: "i", TS: us, Pid: 1, Tid: 1, S: "g",
				Args: map[string]any{"iter": e.Iter},
			})
		case *CheckpointRejected:
			if !traceMatch(traceFilter, rec.Trace, "") {
				continue
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "checkpoint_rejected", Cat: "checkpoint", Ph: "i", TS: us, Pid: 1, Tid: 1, S: "g",
				Args: map[string]any{"reason": e.Reason},
			})
		case *AlertFired:
			if !traceMatch(traceFilter, rec.Trace, "") {
				continue
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "alert: " + e.Rule, Cat: "alert", Ph: "i", TS: us, Pid: 1, Tid: 1, S: "g",
				Args: map[string]any{"metric": e.Metric, "value": e.Value, "threshold": e.Threshold, "profile": e.Profile},
			})
		case *AlertResolved:
			if !traceMatch(traceFilter, rec.Trace, "") {
				continue
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "resolved: " + e.Rule, Cat: "alert", Ph: "i", TS: us, Pid: 1, Tid: 1, S: "g",
				Args: map[string]any{"metric": e.Metric, "value": e.Value, "after_ms": e.After.Milliseconds()},
			})
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(out)
}

// traceMatch applies the filter: recTrace is the journal-record stamp,
// evTrace the span payload's own trace (empty for non-span events).
func traceMatch(filter, recTrace, evTrace string) bool {
	return filter == "" || filter == recTrace || filter == evTrace
}

// spanTrace prefers the span payload's trace over the record stamp.
func spanTrace(recTrace, evTrace string) string {
	if evTrace != "" {
		return evTrace
	}
	return recTrace
}

// ValidateChromeTrace checks that r holds structurally valid Chrome
// trace-event JSON as this package emits it: an object with a
// traceEvents array whose events carry a known phase, monotonically
// sane B/E nesting per tid (every E matches the innermost open B of the
// same tid and name), and non-negative timestamps. Spans left open at
// EOF are allowed (a killed run); an E without a B is not. Used by
// `tracecat -check` and the trace-smoke make target.
func ValidateChromeTrace(r io.Reader) error {
	var doc chromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("not a trace-event JSON document: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("missing traceEvents array")
	}
	open := make(map[int][]string) // tid -> open span name stack
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "B", "E", "X", "C", "i", "b", "e", "n", "M":
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, ev.Ph)
		}
		if ev.TS < 0 {
			return fmt.Errorf("event %d (%s): negative timestamp %v", i, ev.Name, ev.TS)
		}
		if ev.Ph != "E" && ev.Ph != "M" && ev.Name == "" {
			return fmt.Errorf("event %d: missing name", i)
		}
		switch ev.Ph {
		case "B":
			open[ev.Tid] = append(open[ev.Tid], ev.Name)
		case "E":
			st := open[ev.Tid]
			if len(st) == 0 {
				return fmt.Errorf("event %d: E %q on tid %d with no open span", i, ev.Name, ev.Tid)
			}
			if top := st[len(st)-1]; ev.Name != "" && top != ev.Name {
				return fmt.Errorf("event %d: E %q does not match open span %q on tid %d", i, ev.Name, top, ev.Tid)
			}
			open[ev.Tid] = st[:len(st)-1]
		}
	}
	return nil
}
