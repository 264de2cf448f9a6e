// Package serve is the influence-serving layer of the repository: an
// HTTP daemon (cmd/privimd) that hosts trained PrivIM checkpoints and
// answers seed-selection and scoring queries over uploaded graphs.
//
// The subsystem composes five parts:
//
//   - a model registry of named, versioned gnn.Save checkpoints
//     (directory preload at boot + upload CRUD at runtime);
//   - a graph store whose entries are content-addressed by
//     graph.Fingerprint, the deterministic FNV-1a hash of the canonical
//     node/edge/weight stream;
//   - query endpoints (POST /v1/score, POST /v1/seeds) backed by an LRU
//     cache of forward passes keyed by (model@version, fingerprint): one
//     pass, its nodes ranked once, answers the scores and the seeds for
//     every k — the paper's deployment shape, where the non-private
//     indicator is queried repeatedly against one privately trained
//     model;
//   - an async training-job API (POST /v1/train → job ID → poll/cancel)
//     running privim.Train on a bounded worker pool, each job journaling
//     its event stream to per-job JSONL;
//   - production hardening: admission control (semaphore + 429),
//     per-request timeouts, request-size limits, graceful drain, and
//     /healthz + /metrics wired into the internal/obs registry.
//
// Everything is stdlib net/http; the package exposes a Handler so tests
// and embedders can mount it anywhere.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"privim/internal/dataset"
	"privim/internal/ledger"
	"privim/internal/obs"
	"privim/internal/obs/history"
)

// Options configure a Server. Zero values pick production-reasonable
// defaults.
type Options struct {
	// ModelsDir, when set, preloads every checkpoint file in the
	// directory into the registry at construction (version 1, named by
	// base filename).
	ModelsDir string
	// JournalDir, when set, gives every training job a per-job JSONL
	// event journal <dir>/<job-id>.jsonl, makes the job table durable
	// (<dir>/jobs.jsonl, replayed by RecoverJobs after a restart), and
	// checkpoints every running job's training state under
	// <dir>/checkpoints/<job-id> so interrupted jobs resume bit-for-bit.
	JournalDir string
	// CheckpointEvery is the training-checkpoint cadence in iterations
	// for jobs run under a JournalDir (default 10).
	CheckpointEvery int

	// Budget is the per-(tenant, graph fingerprint) privacy budget ε the
	// ledger enforces at job admission: a private training job reserves
	// its requested ε before it is queued, and an exhausted budget denies
	// the submission with 403. 0 disables enforcement (spend is still
	// recorded when a ledger file is configured).
	Budget float64
	// BudgetDelta is the δ at which the ledger's composed RDP spend
	// converts to ε (default 1e-5).
	BudgetDelta float64
	// BudgetLedger is the append-only ledger.jsonl path; defaults to
	// <JournalDir>/ledger.jsonl when JournalDir is set, so the budget
	// survives restarts alongside the job table. Set explicitly to place
	// it elsewhere, or leave JournalDir empty for an in-memory ledger.
	BudgetLedger string

	// MaxConcurrent bounds in-flight requests across all /v1 endpoints;
	// excess requests get 429 (default 8).
	MaxConcurrent int
	// QueryTimeout bounds /v1/score, /v1/seeds, and /v1/train handler
	// time (default 30s).
	QueryTimeout time.Duration
	// MaxBodyBytes bounds uploaded request bodies (default 64 MiB).
	MaxBodyBytes int64
	// TrainWorkers sizes the training worker pool (default 2).
	TrainWorkers int
	// TrainQueue bounds queued-but-not-running jobs; a full queue 429s
	// (default 16).
	TrainQueue int
	// CacheSize bounds the LRU cache's entry count, one forward pass per
	// (model@version, graph fingerprint) (default 256).
	CacheSize int
	// DrainGrace bounds how long Drain waits for running training jobs
	// before preempting them: once it elapses, each running job's context
	// is canceled, the trainer writes a final checkpoint and its partial
	// ε is committed, and still-queued jobs are left in the job table for
	// restart recovery. 0 (the default) waits for running jobs until the
	// Drain context itself expires.
	DrainGrace time.Duration

	// HistoryEvery is the metric-history sampling tick: every registry
	// counter/gauge/histogram-quantile plus the Go runtime metrics land in
	// ring-buffer time series served by GET /v1/stats, and the alert rules
	// are evaluated on the same tick (default 10s).
	HistoryEvery time.Duration
	// HistoryCapacity is the per-series ring capacity (default 360 — an
	// hour of history at the default tick).
	HistoryCapacity int
	// AlertRules are evaluated in addition to the built-in set
	// (history.DefaultServeRules: per-tenant ε burn-rate when Budget > 0,
	// job-queue depth, per-route p99 latency, heap growth).
	AlertRules []history.Rule
	// Profiles, when set, enables triggered diagnostics: a rule firing
	// captures a pprof CPU+heap profile pair into the ring, and the alert
	// records the artifact path. A process shares one ring (privimd
	// passes its -profile-dir ring), so captures never overlap and one
	// prune bounds the directory.
	Profiles *history.ProfileRing

	// Registry receives the server's metrics (requests, latency, cache
	// hit/miss, job counts); nil creates a private one. Sharing the
	// daemon's registry here makes /metrics and /debug/vars agree.
	Registry *obs.Registry
	// Observer, when non-nil, is fanned into every training job's
	// pipeline events in addition to the per-job journal.
	Observer obs.Observer
	// Logf receives operational log lines (default: discard).
	Logf func(string, ...any)
}

func (o *Options) fillDefaults() {
	if o.MaxConcurrent == 0 {
		o.MaxConcurrent = 8
	}
	if o.QueryTimeout == 0 {
		o.QueryTimeout = 30 * time.Second
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.TrainWorkers == 0 {
		o.TrainWorkers = 2
	}
	if o.TrainQueue == 0 {
		o.TrainQueue = 16
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 10
	}
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.BudgetDelta == 0 {
		o.BudgetDelta = 1e-5
	}
	if o.BudgetLedger == "" && o.JournalDir != "" {
		o.BudgetLedger = filepath.Join(o.JournalDir, "ledger.jsonl")
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Server is the influence-serving daemon core: registry, graph store,
// result cache, job pool, and the HTTP API over them.
type Server struct {
	opts      Options
	reg       *obs.Registry
	models    *modelRegistry
	graphs    *graphStore
	cache     *lruCache
	jobs      *jobManager
	budget    *ledger.Ledger // nil when neither Budget nor BudgetLedger is set
	admission *admission
	history   *history.Sampler
	mux       *http.ServeMux
	handler   http.Handler
	draining  atomic.Bool
}

// New constructs a Server, preloading Options.ModelsDir when set.
func New(opts Options) (*Server, error) {
	opts.fillDefaults()
	s := &Server{
		opts:   opts,
		reg:    opts.Registry,
		models: newModelRegistry(),
		graphs: newGraphStore(),
		cache:  newLRUCache(opts.CacheSize),
	}
	if opts.ModelsDir != "" {
		n, err := s.models.LoadDir(opts.ModelsDir, opts.Logf)
		if err != nil {
			return nil, fmt.Errorf("serve: loading models from %s: %w", opts.ModelsDir, err)
		}
		opts.Logf("serve: loaded %d checkpoint(s) from %s", n, opts.ModelsDir)
	}
	// The budget ledger exists when enforcement or durable tracking is
	// asked for. It replays its ledger.jsonl here, before RecoverJobs
	// runs, so recovered jobs see their reservations and cannot
	// double-spend.
	if opts.Budget > 0 || opts.BudgetLedger != "" {
		l, err := ledger.Open(ledger.Options{
			Budget:   opts.Budget,
			Delta:    opts.BudgetDelta,
			Path:     opts.BudgetLedger,
			Observer: obs.Multi(opts.Observer, opts.Registry),
			Logf:     opts.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: opening budget ledger: %w", err)
		}
		s.budget = l
		// Replay emits no events, so seed the per-tenant ε gauges from the
		// replayed balances — without this, the burn-rate history would
		// misread the first post-restart commit as the tenant's entire
		// balance and false-fire.
		l.PublishPositions()
	}
	s.history = history.New(history.Options{
		Registry: s.reg,
		Every:    opts.HistoryEvery,
		Capacity: opts.HistoryCapacity,
		Rules:    append(history.DefaultServeRules(opts.Budget, opts.TrainQueue), opts.AlertRules...),
		Observer: opts.Observer,
		Profiles: opts.Profiles,
	})
	s.history.Start()
	// Training events always aggregate into the server registry (so
	// /metrics covers job telemetry) alongside any caller observer.
	s.jobs = newJobManager(jobManagerOptions{
		workers:         opts.TrainWorkers,
		queueCap:        opts.TrainQueue,
		journalDir:      opts.JournalDir,
		checkpointEvery: opts.CheckpointEvery,
		observer:        obs.Multi(opts.Observer, s.reg),
		models:          s.models,
		metrics:         s.reg,
		logf:            opts.Logf,
		budget:          s.budget,
		drainGrace:      opts.DrainGrace,
	})
	s.admission = newAdmission(opts.MaxConcurrent, s.reg)
	s.buildRoutes()
	return s, nil
}

// StoreGraph parses an edge-list body and stores it under name — the
// programmatic twin of POST /v1/graphs/{name}, used by the daemon's
// -graphs preload.
func (s *Server) StoreGraph(name string, data []byte) (GraphInfo, error) {
	g, err := dataset.ParseGraph(data)
	if err != nil {
		return GraphInfo{}, err
	}
	return s.graphs.Put(name, g)
}

// Handler returns the full HTTP API. The outermost layer resolves the
// request's trace ID (X-Privim-Trace); each route records its own RED
// metrics; admission control and per-request timeouts apply per route
// group underneath.
func (s *Server) Handler() http.Handler { return s.handler }

// Drain stops accepting training jobs, waits for queued and running
// jobs to finish (bounded by ctx), and flips /healthz to draining. With
// Options.DrainGrace set, jobs still running when the grace elapses are
// preempted — canceled at their next preemption point with a final
// checkpoint and their partial ε committed — so a long training run
// cannot hold up shutdown indefinitely. HTTP in-flight draining is the
// owning http.Server's job (Shutdown); call that first, then Drain.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	err := s.jobs.Shutdown(ctx)
	// Stop sampling after the jobs settle so the final commits still land
	// in history, then let any in-flight profile capture finish writing.
	s.history.Close()
	s.opts.Profiles.Wait()
	return err
}

// History exposes the metric-history sampler — the daemon mounts its
// stats/alerts views on the debug server too.
func (s *Server) History() *history.Sampler { return s.history }

// Close is Drain with a 5-second bound, for tests and defer.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

func (s *Server) buildRoutes() {
	mux := http.NewServeMux()
	admit := s.admission.wrap
	timeout := func(h http.Handler) http.Handler {
		// TimeoutHandler writes the 503 — and, crucially, puts a deadline
		// of QueryTimeout on the request context. The query handlers pass
		// r.Context() into the context-aware kernels, so when the 503 goes
		// out the computation actually stops at its next preemption point
		// instead of finishing for a client that already got an error.
		return http.TimeoutHandler(h, s.opts.QueryTimeout, `{"error":"request timed out"}`)
	}
	hf := func(f http.HandlerFunc) http.Handler { return f }
	// handle registers pattern with per-route RED metrics labeled by the
	// pattern itself, outside admission/timeout so 429s and 503s count.
	handle := func(pattern string, h http.Handler) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}

	handle("GET /healthz", hf(s.handleHealth))
	handle("GET /metrics", hf(s.handleMetrics))
	handle("GET /metrics/prom", obs.PromHandler(s.reg))

	handle("GET /v1/models", admit(hf(s.handleModelList)))
	handle("POST /v1/models/{name}", admit(hf(s.handleModelPut)))
	handle("GET /v1/models/{name}", admit(hf(s.handleModelGet)))
	handle("DELETE /v1/models/{name}", admit(hf(s.handleModelDelete)))

	handle("GET /v1/graphs", admit(hf(s.handleGraphList)))
	handle("POST /v1/graphs/{name}", admit(hf(s.handleGraphPut)))
	handle("GET /v1/graphs/{name}", admit(hf(s.handleGraphGet)))
	handle("DELETE /v1/graphs/{name}", admit(hf(s.handleGraphDelete)))

	handle("POST /v1/score", admit(timeout(hf(s.handleScore))))
	handle("POST /v1/seeds", admit(timeout(hf(s.handleSeeds))))

	handle("POST /v1/train", admit(timeout(hf(s.handleTrain))))
	handle("GET /v1/budget", admit(hf(s.handleBudget)))
	handle("GET /v1/stats", history.StatsHandler(s.history))
	handle("GET /v1/alerts", history.AlertsHandler(s.history))
	handle("GET /v1/jobs", admit(hf(s.handleJobList)))
	handle("GET /v1/jobs/{id}", admit(hf(s.handleJobGet)))
	handle("DELETE /v1/jobs/{id}", admit(hf(s.handleJobCancel)))

	// Unmatched paths still get counted (route="unmatched") instead of
	// vanishing into the mux's default 404.
	mux.Handle("/", s.instrument("unmatched", http.NotFoundHandler()))

	s.mux = mux
	s.handler = withTrace(mux)
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // client gone; nothing useful to do
}

// httpError writes a JSON error envelope.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
