package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"privim"
	"privim/internal/obs"
)

// recorder is the traced run's in-memory Observer: it keeps every event
// with its arrival time and writes them out only when the run ends, so
// tracing costs an append per event while the workload runs.
type recorder struct {
	mu  sync.Mutex
	log []stamped
}

type stamped struct {
	at time.Time
	ev privim.Event
}

// Emit implements privim.Observer.
func (r *recorder) Emit(e privim.Event) {
	at := time.Now()
	r.mu.Lock()
	r.log = append(r.log, stamped{at, e})
	r.mu.Unlock()
}

// view indexes everything recorded so far.
func (r *recorder) view() *traceView {
	r.mu.Lock()
	defer r.mu.Unlock()
	return newTraceView(r.log)
}

// writeJournal writes the whole log as a JSONL run journal in the
// program's own record format, which cmd/tracecat converts to a Chrome
// trace.
func (r *recorder) writeJournal(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range r.log {
		data, err := json.Marshal(s.ev)
		if err != nil {
			f.Close()
			return err
		}
		line, err := json.Marshal(obs.Record{Kind: s.ev.EventKind(), TS: s.at.UnixNano(), Data: data})
		if err != nil {
			f.Close()
			return err
		}
		bw.Write(append(line, '\n'))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchSpan opens a benchmark-owned span named name under ctx's span (a
// root on o when ctx has none) and returns a context carrying it, so the
// program's own spans opened from that context nest underneath. With o
// nil and no span in ctx it does nothing and costs nothing.
func benchSpan(ctx context.Context, o obs.Observer, name string) (context.Context, *obs.Span) {
	sp := obs.StartSpanCtx(ctx, o, name)
	return obs.ContextWithSpan(ctx, sp), sp
}

// span is one closed span of a recorded log.
type span struct {
	id, parent uint64
	name       string
	start      time.Time
	dur        time.Duration
}

func (s span) end() time.Time { return s.start.Add(s.dur) }

// traceView indexes the spans and events of a slice of the log.
type traceView struct {
	spans    []span
	children map[uint64][]int
	events   []privim.Event
}

func newTraceView(log []stamped) *traceView {
	v := &traceView{children: map[uint64][]int{}}
	starts := map[uint64]time.Time{}
	for _, s := range log {
		switch ev := s.ev.(type) {
		case privim.SpanStart:
			starts[ev.ID] = s.at
		case privim.SpanEnd:
			start, ok := starts[ev.ID]
			if !ok {
				start = s.at.Add(-ev.Elapsed)
			}
			v.spans = append(v.spans, span{ev.ID, ev.Parent, ev.Span, start, ev.Elapsed})
		default:
			v.events = append(v.events, s.ev)
		}
	}
	for i, s := range v.spans {
		if s.parent != 0 {
			v.children[s.parent] = append(v.children[s.parent], i)
		}
	}
	return v
}

// durations lists the duration in ms of every span named name.
func (v *traceView) durations(name string) []float64 {
	var out []float64
	for _, s := range v.spans {
		if s.name == name {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// selfDurations lists the self time in ms of every span named name: its
// duration minus the part of it that its child spans cover.
func (v *traceView) selfDurations(name string) []float64 {
	var out []float64
	for _, s := range v.spans {
		if s.name == name {
			out = append(out, ms(s.dur-v.covered(s)))
		}
	}
	return out
}

// covered is the length of the union of p's children's intervals,
// clipped to p's own interval.
func (v *traceView) covered(p span) time.Duration {
	var ivs [][2]time.Time
	for _, i := range v.children[p.id] {
		c := v.spans[i]
		lo, hi := c.start, c.end()
		if lo.Before(p.start) {
			lo = p.start
		}
		if hi.After(p.end()) {
			hi = p.end()
		}
		if hi.After(lo) {
			ivs = append(ivs, [2]time.Time{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, iv := range ivs {
		switch {
		case i == 0:
			curLo, curHi = iv[0], iv[1]
		case iv[0].After(curHi):
			total += curHi.Sub(curLo)
			curLo, curHi = iv[0], iv[1]
		case iv[1].After(curHi):
			curHi = iv[1]
		}
	}
	if len(ivs) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}
