// Command privimd is the PrivIM influence-serving daemon: it hosts
// trained model checkpoints and answers seed-selection/scoring queries
// over uploaded graphs, with an async training-job API — the paper's
// deployment story (train privately once, query the released indicator
// repeatedly) as a long-running HTTP service.
//
// Usage:
//
//	privimd -addr :7315 -models ./checkpoints -journal-dir ./journals
//	privimd -addr :7315 -max-concurrent 16 -debug-addr localhost:6060
//
// Endpoints (see the README's Serving section for curl examples):
//
//	GET  /healthz                  liveness (503 while draining)
//	GET  /metrics                  live metrics snapshot (JSON)
//	GET|POST|DELETE /v1/models...  checkpoint registry CRUD
//	GET|POST|DELETE /v1/graphs...  graph store CRUD (fingerprinted)
//	POST /v1/score, /v1/seeds      cached model queries
//	POST /v1/train, /v1/jobs...    async training jobs
//	GET  /v1/budget                caller's privacy-budget position
//	GET  /v1/stats                 windowed metric history (?metric=&window=)
//	GET  /v1/alerts                active + recently-resolved alerts
//
// The daemon samples every registry metric plus Go runtime telemetry
// into an in-process history ring each -history-every, and evaluates
// alert rules (built-ins: per-tenant ε burn rate, job-queue depth,
// route p99 latency, heap growth; more via -alert-rules) against it.
// With -profile-dir set, a firing rule or a -slow-span watchdog trip
// captures a pprof heap+CPU pair into a bounded on-disk ring and stamps
// the artifact path on the alert.
//
// With -budget set, every private training job charges a per-tenant
// (X-Privim-Tenant header) privacy-budget ledger keyed on the graph
// fingerprint; exhausted budgets deny admission with 403. The ledger
// persists to <journal-dir>/ledger.jsonl (or -budget-ledger) and
// replays on restart.
//
// SIGTERM/SIGINT drains gracefully: the listener closes, in-flight
// requests and queued/running training jobs finish (bounded by
// -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"privim/internal/cliutil"
	"privim/internal/obs"
	"privim/internal/obs/history"
	"privim/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":7315", "HTTP listen address")
		modelsDir     = flag.String("models", "", "preload every checkpoint file in this directory")
		graphsDir     = flag.String("graphs", "", "preload every edge-list file in this directory")
		journalDir    = flag.String("journal-dir", "", "durable state directory: per-job JSONL event journals, the crash-recovery job table (jobs.jsonl), and per-job training checkpoints")
		ckptEvery     = flag.Int("checkpoint-every", 10, "training-checkpoint cadence in iterations for jobs run under -journal-dir")
		maxConcurrent = flag.Int("max-concurrent", 8, "admission limit: max in-flight /v1 requests before 429")
		queryTimeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout for query endpoints")
		maxBody       = flag.Int64("max-body", 64<<20, "request body size limit in bytes")
		trainWorkers  = flag.Int("train-workers", 2, "training worker pool size")
		trainQueue    = flag.Int("train-queue", 16, "max queued training jobs before 429")
		cacheSize     = flag.Int("cache-size", 256, "LRU result-cache entry capacity")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight work on shutdown")
		drainGrace    = flag.Duration("drain-grace", 0, "how long shutdown waits for running training jobs before preempting them (checkpoint + partial ε commit); 0 waits the full -drain-timeout")
		historyEvery  = flag.Duration("history-every", 10*time.Second, "metric-history sampling and alert-evaluation cadence for /v1/stats and /v1/alerts")
		historyCap    = flag.Int("history-capacity", 0, "points retained per metric series in the in-process history ring (default 360 — one hour at the default cadence)")
		alertRules    = flag.String("alert-rules", "", "JSON file of alert rules (threshold, delta, slo_burn_rate) evaluated every -history-every, added to the built-in rules; see README Monitoring & alerting")
		workers       = cliutil.RegisterWorkers(flag.CommandLine)
		obsFlags      cliutil.ObserverFlags
		budgetFlags   cliutil.BudgetFlags
	)
	obsFlags.Register(flag.CommandLine)
	budgetFlags.Register(flag.CommandLine, "budget-ledger")
	flag.Parse()
	// Apply before serve.New: the job manager splits this limit across its
	// -train-workers slots to size each job's compute pool.
	cliutil.ApplyWorkers(*workers)

	logger := log.New(os.Stderr, "privimd: ", log.LstdFlags)

	var rules []history.Rule
	if *alertRules != "" {
		var err error
		if rules, err = history.LoadRules(*alertRules); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("loaded %d alert rule(s) from %s", len(rules), *alertRules)
	}

	// One registry backs /metrics, /debug/vars, and the training-event
	// aggregation, so every view of the daemon agrees.
	reg := obs.NewRegistry()
	stack, err := obsFlags.Setup("privimd", reg)
	if err != nil {
		logger.Fatal(err)
	}
	defer stack.Close()

	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			logger.Fatal(err)
		}
	}
	srv, err := serve.New(serve.Options{
		ModelsDir:       *modelsDir,
		JournalDir:      *journalDir,
		CheckpointEvery: *ckptEvery,
		MaxConcurrent:   *maxConcurrent,
		QueryTimeout:    *queryTimeout,
		MaxBodyBytes:    *maxBody,
		TrainWorkers:    *trainWorkers,
		TrainQueue:      *trainQueue,
		CacheSize:       *cacheSize,
		DrainGrace:      *drainGrace,
		Budget:          budgetFlags.Budget,
		BudgetDelta:     budgetFlags.Delta,
		BudgetLedger:    budgetFlags.Path,
		HistoryEvery:    *historyEvery,
		HistoryCapacity: *historyCap,
		AlertRules:      rules,
		Profiles:        stack.Profiles,
		Registry:        reg,
		Observer:        stack.Observer,
		Logf:            logger.Printf,
	})
	if err != nil {
		logger.Fatal(err)
	}
	if stack.Debug != nil {
		// The daemon's one history sampler backs the debug listener's
		// /v1/stats and /v1/alerts as well as the API's.
		stack.Debug.Handle("GET /v1/stats", history.StatsHandler(srv.History()))
		stack.Debug.Handle("GET /v1/alerts", history.AlertsHandler(srv.History()))
	}
	if *graphsDir != "" {
		if err := preloadGraphs(srv, *graphsDir, logger); err != nil {
			logger.Fatal(err)
		}
	}
	if *journalDir != "" {
		// Replay the persisted job table after graphs are loaded: queued
		// jobs requeue, interrupted jobs resume from their last checkpoint,
		// unrecoverable ones are marked failed.
		requeued, failed := srv.RecoverJobs()
		if requeued+failed > 0 {
			logger.Printf("job recovery: %d requeued, %d unrecoverable", requeued, failed)
		}
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// WriteTimeout backstops the per-route http.TimeoutHandler (with
		// headroom over -timeout so the 503 body still goes out), and
		// IdleTimeout reaps keep-alive connections a dead client left
		// behind — without these a stuck peer pins a connection forever.
		WriteTimeout: *queryTimeout + 10*time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("serving on http://%s", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Printf("received %s, draining (timeout %s)", sig, *drainTimeout)
	case err := <-errc:
		logger.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the listener and wait for in-flight HTTP first, then let the
	// job pool finish queued/running training.
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http drain: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		logger.Printf("job drain: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
	}
	logger.Printf("drained, exiting")
}

// preloadGraphs stores every parseable edge-list file in dir under its
// base filename (extension stripped), mirroring the model preload.
func preloadGraphs(srv *serve.Server, dir string, logger *log.Logger) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	loaded := 0
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			logger.Printf("skipping %s: %v", path, err)
			continue
		}
		name := de.Name()
		if ext := filepath.Ext(name); ext != "" {
			name = name[:len(name)-len(ext)]
		}
		info, err := srv.StoreGraph(name, data)
		if err != nil {
			logger.Printf("skipping %s: %v", path, err)
			continue
		}
		logger.Printf("graph %s loaded (|V|=%d |E|=%d fp=%s)", info.Name, info.Nodes, info.Edges, info.Fingerprint)
		loaded++
	}
	logger.Printf("loaded %d graph(s) from %s", loaded, dir)
	return nil
}
