// Package cliutil holds the flag plumbing shared by the privim binaries
// (cmd/privim, cmd/imbench, cmd/privimd): the observability flag set
// (-journal, -debug-addr, -trace-out, -slow-span, -stats-every,
// -profile-dir) and the assembly of the observer stack they request.
// Centralizing it keeps the CLIs' behavior identical — same flag names,
// same help text, same journal/trace/debug lifecycle.
package cliutil

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"privim/internal/obs"
	"privim/internal/obs/history"
	"privim/internal/parallel"
)

// RegisterWorkers installs the shared -workers flag on fs. Call
// ApplyWorkers with the parsed value after fs.Parse; keeping the two steps
// explicit lets the daemon apply it before computing per-job budgets.
func RegisterWorkers(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0,
		"worker-pool width for parallel kernels (GEMM, DP-SGD, RR sets, MC rounds); 0 = PRIVIM_WORKERS env, then GOMAXPROCS")
}

// ApplyWorkers pins the process-wide pool width when n > 0; n <= 0 leaves
// the PRIVIM_WORKERS / GOMAXPROCS default in place. Results of every
// parallel path are bit-for-bit independent of the width — the flag trades
// wall-clock against CPU share only.
func ApplyWorkers(n int) {
	if n > 0 {
		parallel.SetLimit(n)
	}
}

// CheckpointFlags is the shared crash-safety flag pair: a checkpoint
// directory and a save cadence. A binary registers them, then copies the
// parsed values into privim.Config.CheckpointDir / CheckpointEvery (or
// serve.Options.CheckpointEvery for the daemon, whose per-job directories
// live under its journal dir).
type CheckpointFlags struct {
	Dir   string
	Every int
}

// Register installs -checkpoint-dir and -checkpoint-every on fs with the
// shared help text.
func (f *CheckpointFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Dir, "checkpoint-dir", "",
		"write crash-safe training checkpoints into this directory and auto-resume from the newest valid one (resumed runs are bit-for-bit identical to uninterrupted ones)")
	fs.IntVar(&f.Every, "checkpoint-every", 0,
		"checkpoint cadence in training iterations (default 10; only with -checkpoint-dir)")
}

// BudgetFlags is the shared privacy-budget flag set: an enforced per-
// (tenant, graph) ε limit, the δ the ledger composes at, and the
// append-only ledger file that makes the budget durable. The daemon
// names the path flag -budget-ledger; the trainer CLI names it
// -budget-file (its ledger is a local file, not a serving directory).
type BudgetFlags struct {
	Budget float64
	Delta  float64
	Path   string
}

// Register installs -budget, -budget-delta, and the named path flag on
// fs with the shared help text.
func (f *BudgetFlags) Register(fs *flag.FlagSet, pathFlag string) {
	fs.Float64Var(&f.Budget, "budget", 0,
		"enforce a per-(tenant, graph) privacy budget ε across training runs; runs that would exceed it are denied (0 = no enforcement)")
	fs.Float64Var(&f.Delta, "budget-delta", 0,
		"δ at which the budget ledger composes accumulated RDP spend (default 1e-5)")
	fs.StringVar(&f.Path, pathFlag, "",
		"append-only JSONL privacy-budget ledger; replayed on start so spend survives restarts")
}

// ObserverFlags is the observability flag set every binary exposes.
// Register installs the flags on a FlagSet; Setup builds the stack the
// parsed values request.
type ObserverFlags struct {
	Journal     string
	DebugAddr   string
	TraceOut    string
	SlowSpan    time.Duration
	StatsEvery  time.Duration
	ProfileDir  string
	ProfileKeep int
}

// Register installs -journal, -debug-addr, -trace-out, -slow-span,
// -stats-every, -profile-dir, and -profile-keep on fs with the shared
// help text.
func (f *ObserverFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Journal, "journal", "",
		"append a JSONL event journal (spans, per-iteration loss/ε, MC batches) to this path")
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve live metrics (expvar /debug/vars, Prometheus /metrics/prom) and pprof (/debug/pprof/) on host:port")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write a Chrome trace-event JSON timeline of the run to this path (open in https://ui.perfetto.dev)")
	fs.DurationVar(&f.SlowSpan, "slow-span", 0,
		"emit a span_slow event when any span exceeds this duration (0 = off)")
	fs.DurationVar(&f.StatsEvery, "stats-every", 0,
		"print a one-line telemetry summary (iterations, ε spent, goroutines, heap) to stderr every interval and keep an in-process metric history, queryable at the debug server's /v1/stats and /v1/alerts (0 = off)")
	fs.StringVar(&f.ProfileDir, "profile-dir", "",
		"capture pprof heap+CPU profile pairs into this directory when an alert rule fires or a -slow-span watchdog trips, keeping only the newest few (see -profile-keep)")
	fs.IntVar(&f.ProfileKeep, "profile-keep", 0,
		"number of triggered profile captures to keep in -profile-dir before pruning the oldest (default 8)")
}

// Stack is the assembled observability plumbing: the fan-out Observer to
// hand to pipeline configs (nil when no event-consuming flag was set, so
// the zero-cost unobserved path is preserved), plus the registry and
// debug server when -debug-addr requested them. TraceID is the run's
// trace — minted once per Setup and stamped on the journal and every
// span started via Context. Close must run before exit to drain the
// journal, convert the trace timeline, and stop the debug listener.
type Stack struct {
	Observer obs.Observer
	Registry *obs.Registry        // non-nil when -debug-addr or -stats-every was set
	Debug    *obs.DebugServer     // non-nil iff -debug-addr was set
	Sampler  *history.Sampler     // non-nil iff -stats-every was set and Setup owns the registry
	Profiles *history.ProfileRing // non-nil iff -profile-dir was set
	TraceID  string

	name      string
	sink      *obs.JSONLSink
	file      *os.File
	traceBuf  *bytes.Buffer
	traceSink *obs.JSONLSink
	traceOut  string
	watchdog  *obs.SlowSpanWatchdog
	statsStop chan struct{}
	statsDone chan struct{}
}

// Context returns ctx carrying the stack's trace ID, for threading into
// the context-aware pipeline entry points (privim.Train, im
// SelectContext, diffusion.Estimate).
func (s *Stack) Context(ctx context.Context) context.Context {
	return obs.ContextWithTrace(ctx, s.TraceID)
}

// Setup assembles what the flags request: a JSONL journal sink when
// -journal is set, a Chrome trace-event timeline when -trace-out is set,
// a slow-span watchdog when -slow-span is set, a triggered-profile ring
// when -profile-dir is set, a history sampler plus a periodic stderr
// telemetry line when -stats-every is set, and a metrics registry
// published via expvar under name behind a pprof-enabled debug listener
// when -debug-addr is set. A non-nil reg is used in place of a fresh
// registry — the daemon shares one registry between its /metrics
// endpoint and /debug/vars — and comes with its owner's history sampler,
// so Setup builds none for it.
func (f *ObserverFlags) Setup(name string, reg *obs.Registry) (*Stack, error) {
	s := &Stack{name: name, TraceID: obs.NewTraceID()}
	var observers []obs.Observer
	var sinks []obs.Observer // journal + trace only: alert events tee here
	if f.Journal != "" {
		file, err := os.Create(f.Journal)
		if err != nil {
			return nil, err
		}
		s.file = file
		s.sink = obs.NewJSONLSink(file)
		s.sink.SetTrace(s.TraceID)
		observers = append(observers, s.sink)
		sinks = append(sinks, s.sink)
	}
	if f.TraceOut != "" {
		// Events journal into memory during the run; Close converts the
		// buffer to trace-event JSON (the converter needs the whole stream
		// to lay spans out on virtual threads).
		s.traceBuf = &bytes.Buffer{}
		s.traceOut = f.TraceOut
		s.traceSink = obs.NewJSONLSink(s.traceBuf)
		s.traceSink.SetTrace(s.TraceID)
		observers = append(observers, s.traceSink)
		sinks = append(sinks, s.traceSink)
	}
	if f.ProfileDir != "" {
		ring, err := history.NewProfileRing(history.ProfileOptions{
			Dir:  f.ProfileDir,
			Keep: f.ProfileKeep,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, name+": profile: "+format+"\n", args...)
			},
		})
		if err != nil {
			s.closeJournal()
			return nil, err
		}
		s.Profiles = ring
		// Before the watchdog wrap below: SpanSlow events flow through the
		// wrapped chain, so the capture hook must sit inside it.
		observers = append(observers, ring.CaptureOnSlowSpan())
	}
	// A caller-provided registry is published but not fanned into the
	// observer — the caller already routes events into it (the daemon
	// wires it through serve.Options.Registry); appending it here would
	// double-count every event. An owned registry (created because
	// -debug-addr or -stats-every needs one) does join the fan-out.
	owned := false
	if reg == nil && (f.DebugAddr != "" || f.StatsEvery > 0) {
		owned = true
		reg = obs.NewRegistry()
	}
	if f.DebugAddr != "" {
		if err := reg.Publish(name); err != nil {
			s.closeJournal()
			return nil, err
		}
		dbg, err := obs.StartDebugServer(f.DebugAddr, reg)
		if err != nil {
			s.closeJournal()
			return nil, err
		}
		s.Debug = dbg
		fmt.Printf("debug server: http://%s/debug/vars (metrics), http://%s/metrics/prom (Prometheus), http://%s/debug/pprof/ (profiles)\n",
			dbg.Addr(), dbg.Addr(), dbg.Addr())
	}
	if reg != nil {
		s.Registry = reg
		if owned {
			observers = append(observers, reg)
		}
	}
	if f.StatsEvery > 0 {
		if owned {
			// The sampler routes alert_fired/alert_resolved into the registry
			// itself; tee them into the journal/trace sinks too so tracecat
			// can overlay alerts on the run timeline.
			s.Sampler = history.New(history.Options{
				Registry: reg,
				Every:    f.StatsEvery,
				Observer: obs.Multi(sinks...),
				Profiles: s.Profiles,
			})
			s.Sampler.Start()
			if s.Debug != nil {
				s.Debug.Handle("GET /v1/stats", history.StatsHandler(s.Sampler))
				s.Debug.Handle("GET /v1/alerts", history.AlertsHandler(s.Sampler))
			}
		}
		s.statsStop = make(chan struct{})
		s.statsDone = make(chan struct{})
		go s.statsLoop(reg, f.StatsEvery)
	}
	s.Observer = obs.Multi(observers...)
	if f.SlowSpan > 0 && s.Observer != nil {
		s.watchdog = obs.NewSlowSpanWatchdog(f.SlowSpan, s.Observer)
		s.Observer = s.watchdog
	}
	return s, nil
}

// statsLoop prints a one-line telemetry summary to stderr every interval
// — enough to watch a long training run from a terminal without a debug
// server. A history sampler on reg (Setup's own, or the caller's) keeps
// the go.* runtime gauges fresh.
func (s *Stack) statsLoop(reg *obs.Registry, every time.Duration) {
	defer close(s.statsDone)
	tick := time.NewTicker(every)
	defer tick.Stop()
	iters := reg.Counter("train.iterations")
	eps := reg.Gauge("train.epsilon_spent")
	goroutines := reg.Gauge("go.goroutines")
	heap := reg.Gauge("go.heap_bytes")
	open := reg.Gauge("span.open")
	alerts := reg.Gauge("alert.active")
	for {
		select {
		case <-s.statsStop:
			return
		case <-tick.C:
			fmt.Fprintf(os.Stderr,
				"%s: stats iter=%d eps=%.4g goroutines=%d heap=%.1fMB spans_open=%d alerts=%d\n",
				s.name, iters.Value(), eps.Value(),
				int(goroutines.Value()), heap.Value()/(1<<20),
				int(open.Value()), int(alerts.Value()))
		}
	}
}

// Close stops the stats loop and history sampler, stops the watchdog,
// drains the journal to disk, converts the -trace-out timeline, waits
// for in-flight profile captures, and gracefully stops the debug server
// (bounded wait for in-flight scrapes).
func (s *Stack) Close() {
	if s.statsStop != nil {
		close(s.statsStop)
		<-s.statsDone
		s.statsStop, s.statsDone = nil, nil
	}
	if s.Sampler != nil {
		// Before the journal drain below: the final tick may resolve alerts
		// whose events belong in the journal.
		s.Sampler.Close()
	}
	if s.watchdog != nil {
		s.watchdog.Close()
		s.watchdog = nil
	}
	s.Profiles.Wait()
	s.closeJournal()
	s.writeTrace()
	if s.Debug != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = s.Debug.Shutdown(ctx)
	}
}

func (s *Stack) closeJournal() {
	if s.sink == nil {
		return
	}
	if err := s.sink.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: journal: %v\n", s.name, err)
	}
	s.file.Close()
	s.sink, s.file = nil, nil
}

// writeTrace converts the buffered event stream into the -trace-out
// Chrome trace-event file.
func (s *Stack) writeTrace() {
	if s.traceBuf == nil {
		return
	}
	if err := s.traceSink.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: trace-out: %v\n", s.name, err)
	}
	buf := s.traceBuf
	s.traceBuf, s.traceSink = nil, nil
	f, err := os.Create(s.traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: trace-out: %v\n", s.name, err)
		return
	}
	if err := obs.WriteChromeTrace(buf, f, ""); err != nil {
		fmt.Fprintf(os.Stderr, "%s: trace-out: %v\n", s.name, err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: trace-out: %v\n", s.name, err)
	}
}
