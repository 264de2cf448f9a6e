package serve

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"privim/internal/gnn"
	"privim/internal/graph"
	"privim/internal/ledger"
	"privim/internal/obs"
	"privim/internal/parallel"
	core "privim/internal/privim"
)

// DefaultTenant is the budget account a job charges when the submitting
// request carries no tenant header.
const DefaultTenant = "default"

// JobState is the lifecycle of an async training job.
type JobState string

// Job lifecycle: queued → running → done/failed/canceled, with a
// transient canceling state between a cancel request on a running job
// and the trainer actually stopping. Queued jobs cancel immediately
// (full refund — nothing was spent); running jobs are preempted
// cooperatively: the trainer stops at its next preemption point, writes
// a final checkpoint, and the manager commits the ε actually spent,
// refunding only the unspent remainder of the reservation.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobCanceling JobState = "canceling"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCanceled  JobState = "canceled"
)

// TrainRequest is the POST /v1/train body. Graph names a stored graph;
// every other field is optional and falls back to the paper's defaults
// (core.Config.normalize). Epsilon follows the library semantics
// exactly (core.Config): 0 (unset) and +Inf both mean non-private,
// negative is rejected with 400 before a job is created. Only private
// requests (finite positive ε outside non-private mode) charge the
// tenant's budget ledger.
//
// Seed fixes the run's randomness: extraction, initialization, batch
// picks and the DP noise. A private request without one gets a secret
// seed from crypto/rand when it is admitted, kept only in the job table
// (jobs.jsonl) so restart recovery resumes the same run; it appears in
// no response, journal line or metric. An explicit seed, 0 included,
// makes the run reproducible, and the privacy guarantee then does not
// hold against whoever knows it. A job-table line without a seed
// replays as 0.
type TrainRequest struct {
	Graph     string  `json:"graph"`
	ModelName string  `json:"model_name,omitempty"` // registry destination; default: the job ID
	Mode      string  `json:"mode,omitempty"`
	GNN       string  `json:"gnn,omitempty"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	// Delta is the guarantee's δ. Unset picks the library default
	// (1/|V_train|) — except for budget-charged jobs, which default to
	// the ledger's δ so the committed spend matches the reserved ε.
	Delta        float64 `json:"delta,omitempty"`
	Iterations   int     `json:"iterations,omitempty"`
	SubgraphSize int     `json:"subgraph_size,omitempty"`
	Threshold    int     `json:"threshold,omitempty"`
	HiddenDim    int     `json:"hidden_dim,omitempty"`
	Layers       int     `json:"layers,omitempty"`
	BatchSize    int     `json:"batch_size,omitempty"`
	Seed         *int64  `json:"seed,omitempty"`
}

// JobStatus is the public view of one job, returned by the submit and
// poll endpoints.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Graph string   `json:"graph"`
	// Model is the "name@version" registry reference of the trained
	// checkpoint once the job is done.
	Model string `json:"model,omitempty"`
	Error string `json:"error,omitempty"`
	// Journal is the per-job JSONL event journal path (when the server
	// runs with a journal directory).
	Journal string `json:"journal,omitempty"`
	// Trace is the trace ID of the request that submitted the job — the
	// X-Privim-Trace value the submitter saw. Every span and journal
	// record the job produces carries it, so one ID follows the work from
	// HTTP request through the async hand-off to the training pipeline.
	Trace string `json:"trace,omitempty"`
	// Tenant is the X-Privim-Tenant the job was submitted under — the
	// budget-ledger account its privacy spend charges ("default" when the
	// header is absent).
	Tenant string `json:"tenant,omitempty"`
	// Fingerprint is the submitted graph's content fingerprint, the graph
	// key the ledger charges under (stable across graph renames).
	Fingerprint string `json:"fingerprint,omitempty"`

	// Training summary: the ε the run released, set whenever training got
	// as far as fixing σ, whatever the outcome.
	EpsilonSpent float64 `json:"epsilon_spent,omitempty"`
	Private      bool    `json:"private,omitempty"`

	// Started and Finished stay zero until the job starts and ends;
	// MarshalJSON leaves them out while they are.
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// MarshalJSON encodes s with the zero Started and Finished times omitted:
// encoding/json's omitempty never treats a time.Time as empty. Decoding
// needs no counterpart, since a missing key and the zero time's string
// both decode to the zero time.
func (s JobStatus) MarshalJSON() ([]byte, error) {
	type fields JobStatus // the same fields without this method
	v := struct {
		fields
		Started  *time.Time `json:"started,omitempty"`
		Finished *time.Time `json:"finished,omitempty"`
	}{fields: fields(s)}
	if !s.Started.IsZero() {
		v.Started = &s.Started
	}
	if !s.Finished.IsZero() {
		v.Finished = &s.Finished
	}
	return json.Marshal(v)
}

var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("training queue is full")
)

type job struct {
	status JobStatus
	req    TrainRequest
	g      *graph.Graph
	// cancel preempts the job's training context; non-nil only while the
	// job is running. cancelAt is when cancellation was requested, for
	// the cancel-latency histogram.
	cancel   context.CancelFunc
	cancelAt time.Time
}

// jobManagerOptions configure a jobManager; see the serve.Options fields
// of the same names.
type jobManagerOptions struct {
	workers         int
	queueCap        int
	journalDir      string
	checkpointEvery int
	observer        obs.Observer // fanned into every job's training config
	models          *modelRegistry
	metrics         *obs.Registry
	logf            func(string, ...any)
	budget          *ledger.Ledger // nil = no budget tracking
	drainGrace      time.Duration  // 0 = wait for running jobs forever
}

// jobManager runs training jobs on a bounded worker pool with a bounded
// queue. The queue is a slice guarded by mu/cond rather than a channel so
// canceling a queued job can remove it — and release its queue slot —
// immediately. Every status mutation happens under mu; workers copy what
// they need out before releasing it, so a long Train never holds the
// lock. With a journal directory configured, every state transition is
// appended to a jobs.jsonl table that restart recovery replays.
type jobManager struct {
	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []string
	pending  []*job // queued jobs, submission order
	queueCap int
	wg       sync.WaitGroup
	draining bool
	// preempted is set when the drain grace elapses: running jobs have
	// been canceled and workers must not pick up queued work (it stays in
	// the job table for restart recovery).
	preempted bool
	nextID    int

	journalDir      string
	checkpointEvery int
	observer        obs.Observer
	models          *modelRegistry
	metrics         *obs.Registry
	logf            func(string, ...any)
	budget          *ledger.Ledger
	drainGrace      time.Duration

	// perJobWorkers is the compute-pool width each training job runs at:
	// the process-wide limit divided across the concurrent job slots, so a
	// full pool does not oversubscribe the machine. Training results are
	// bit-for-bit independent of the width.
	perJobWorkers int
}

func newJobManager(opts jobManagerOptions) *jobManager {
	perJob := 1
	if opts.workers > 0 {
		if perJob = parallel.Limit() / opts.workers; perJob < 1 {
			perJob = 1
		}
	}
	m := &jobManager{
		jobs:            make(map[string]*job),
		queueCap:        opts.queueCap,
		journalDir:      opts.journalDir,
		checkpointEvery: opts.checkpointEvery,
		observer:        opts.observer,
		models:          opts.models,
		metrics:         opts.metrics,
		logf:            opts.logf,
		budget:          opts.budget,
		drainGrace:      opts.drainGrace,
		perJobWorkers:   perJob,
	}
	m.cond = sync.NewCond(&m.mu)
	m.wg.Add(opts.workers)
	for i := 0; i < opts.workers; i++ {
		go m.worker()
	}
	return m
}

// config maps the request's training fields onto the trainer's Config;
// admission validates the same Config the job later runs.
func (req TrainRequest) config() core.Config {
	return core.Config{
		Mode:         core.Mode(req.Mode),
		GNNKind:      gnn.Kind(req.GNN),
		Epsilon:      req.Epsilon,
		Delta:        req.Delta,
		Iterations:   req.Iterations,
		SubgraphSize: req.SubgraphSize,
		Threshold:    req.Threshold,
		HiddenDim:    req.HiddenDim,
		Layers:       req.Layers,
		BatchSize:    req.BatchSize,
		Seed:         req.seed(),
	}
}

// seed is the request's seed, 0 when unset.
func (req TrainRequest) seed() int64 {
	if req.Seed == nil {
		return 0
	}
	return *req.Seed
}

// secretSeed draws a seed no client can know.
func secretSeed() (*int64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return nil, fmt.Errorf("drawing a secret seed: %w", err)
	}
	seed := int64(binary.LittleEndian.Uint64(b[:]))
	return &seed, nil
}

// Submit enqueues a training job over g (already resolved from
// req.Graph, so a later graph delete cannot invalidate a queued job).
// tenant is the budget account the job charges; trace is the submitting
// request's trace ID ("" mints one when the job runs), carried on the
// job status and into its journal and spans.
func (m *jobManager) Submit(req TrainRequest, g *graph.Graph, tenant, trace string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return JobStatus{}, errDraining
	}
	// Admission first: a rejected submission must not consume an ID (gaps
	// in the job-XXXX sequence would otherwise leak queue pressure into
	// the naming and break ID-based recovery bookkeeping).
	if len(m.pending) >= m.queueCap {
		m.metrics.Counter("serve.jobs.rejected").Inc()
		return JobStatus{}, errQueueFull
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	fp := fmt.Sprintf("%016x", g.Fingerprint())
	private := req.config().Private()
	if private && req.Seed == nil {
		seed, err := secretSeed()
		if err != nil {
			return JobStatus{}, err
		}
		req.Seed = seed
	}
	// Budget admission: reserve the requested ε under the job's future ID
	// before consuming it, so a denied submission — like a full queue —
	// leaves no gap in the job-XXXX sequence.
	if m.budget != nil && private {
		ref := fmt.Sprintf("job-%04d", m.nextID+1)
		if err := m.budget.Reserve(ref, tenant, fp, req.Epsilon); err != nil {
			m.metrics.Counter("serve.jobs.denied").Inc()
			return JobStatus{}, err
		}
	}
	m.nextID++
	j := &job{
		status: JobStatus{
			ID:          fmt.Sprintf("job-%04d", m.nextID),
			State:       JobQueued,
			Graph:       req.Graph,
			Trace:       trace,
			Tenant:      tenant,
			Fingerprint: fp,
			Created:     time.Now(),
		},
		req: req,
		g:   g,
	}
	m.jobs[j.status.ID] = j
	m.order = append(m.order, j.status.ID)
	m.pending = append(m.pending, j)
	m.metrics.Counter("serve.jobs.submitted").Inc()
	m.metrics.Gauge("serve.jobs.queued").Inc()
	m.persistLocked(j)
	m.cond.Signal()
	return j.status, nil
}

// Get returns the status of one job.
func (m *jobManager) Get(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("job %q not found", id)
	}
	return j.status, nil
}

// List returns every job in submission order.
func (m *jobManager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id].status)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Created.Before(out[j].Created) })
	return out
}

// Cancel cancels a job. A queued job cancels immediately: it leaves the
// queue (releasing its slot to new submissions) and its full reservation
// is refunded — nothing ran, nothing was spent. A running job moves to
// canceling: its training context is canceled and the trainer stops at
// the next preemption point, writes a final checkpoint, and the worker
// settles the job as canceled — committing exactly the ε its iterations
// released and refunding only the unspent remainder. Finished jobs
// conflict.
func (m *jobManager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("job %q not found", id)
	}
	switch j.status.State {
	case JobQueued:
		j.status.State = JobCanceled
		j.status.Finished = time.Now()
		if m.budget != nil {
			// The job never ran, so it spent nothing: release its reservation.
			// Ledger before job table, so a crash between the two leaves the
			// ledger ahead — never behind — of what recovery replays.
			m.budget.Refund(id)
		}
		for i, p := range m.pending {
			if p == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				m.metrics.Gauge("serve.jobs.queued").Dec()
				break
			}
		}
		m.metrics.Counter("serve.jobs.canceled").Inc()
		m.persistLocked(j)
		return j.status, nil
	case JobRunning:
		j.status.State = JobCanceling
		j.cancelAt = time.Now()
		if j.cancel != nil {
			j.cancel()
		}
		m.metrics.Counter("serve.jobs.cancel_requested").Inc()
		// Persist the transient state: if the daemon dies before the
		// trainer stops, recovery resolves "canceling" as canceled and
		// forfeits the reservation (the partial spend was never committed).
		m.persistLocked(j)
		return j.status, nil
	default:
		return j.status, fmt.Errorf("job %q is %s, only queued or running jobs cancel", id, j.status.State)
	}
}

// Shutdown stops accepting jobs and waits for the pool to drain or ctx
// to expire. With a drain grace configured, jobs still running once the
// grace elapses are preempted: their training contexts are canceled,
// each writes a final checkpoint and settles its partial spend, and the
// still-queued remainder stays in the job table for restart recovery.
func (m *jobManager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var grace <-chan time.Time
	if m.drainGrace > 0 {
		t := time.NewTimer(m.drainGrace)
		defer t.Stop()
		grace = t.C
	}
	for {
		select {
		case <-done:
			return nil
		case <-grace:
			grace = nil
			m.preemptRunning()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// preemptRunning cancels every running job's training context and stops
// workers from picking up queued jobs. Preempted jobs finish as canceled
// with a resumable checkpoint; the queued remainder requeues on restart.
func (m *jobManager) preemptRunning() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.preempted = true
	m.cond.Broadcast()
	for _, id := range m.order {
		j := m.jobs[id]
		if j.status.State == JobRunning && j.cancel != nil {
			j.status.State = JobCanceling
			j.cancelAt = time.Now()
			j.cancel()
			m.metrics.Counter("serve.jobs.preempted").Inc()
			m.persistLocked(j)
			m.logf("serve: drain grace elapsed, preempting %s", id)
		}
	}
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		j := m.dequeue()
		if j == nil {
			return
		}
		m.run(j)
	}
}

// dequeue blocks until a job is available or the manager is draining
// with an empty queue (drain still runs everything already accepted).
func (m *jobManager) dequeue() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) == 0 && !m.draining && !m.preempted {
		m.cond.Wait()
	}
	if len(m.pending) == 0 || m.preempted {
		return nil
	}
	j := m.pending[0]
	m.pending = m.pending[1:]
	m.metrics.Gauge("serve.jobs.queued").Dec()
	return j
}

// run executes one job end to end. The job's own Observer stack is the
// server-wide observer plus a per-job JSONL journal when a journal
// directory is configured.
func (m *jobManager) run(j *job) {
	// The job trains under a cancelable context: Cancel on a running job
	// and drain-grace preemption both fire j.cancel, and the trainer
	// stops cooperatively at its next preemption point.
	runCtx, cancelRun := context.WithCancel(context.Background())
	defer cancelRun()
	m.mu.Lock()
	if j.status.State != JobQueued { // canceled while waiting
		m.mu.Unlock()
		return
	}
	j.status.State = JobRunning
	j.cancel = cancelRun
	j.status.Started = time.Now()
	if j.status.Trace == "" {
		// Jobs recovered from a pre-trace jobs.jsonl have no ID; mint one
		// so their journals are still attributable end to end.
		j.status.Trace = obs.NewTraceID()
	}
	req, g, id, trace := j.req, j.g, j.status.ID, j.status.Trace
	tenant, fp := j.status.Tenant, j.status.Fingerprint
	m.persistLocked(j)
	m.mu.Unlock()
	m.metrics.Gauge("serve.jobs.running").Inc()
	defer m.metrics.Gauge("serve.jobs.running").Dec()

	observer := m.observer
	var journalPath string
	var sink *obs.JSONLSink
	var journalFile *os.File
	if m.journalDir != "" {
		journalPath = filepath.Join(m.journalDir, id+".jsonl")
		f, err := os.Create(journalPath)
		if err != nil {
			m.logf("serve: %s: journal: %v", id, err)
			journalPath = ""
		} else {
			journalFile = f
			sink = obs.NewJSONLSink(f)
			sink.SetTrace(trace)
			observer = obs.Multi(observer, sink)
		}
	}

	cfg := req.config()
	cfg.Workers = m.perJobWorkers
	cfg.Observer = observer
	if cfg.Delta == 0 && m.budget != nil && cfg.Private() {
		// Budget-charged runs compose at the ledger's δ; calibrating the
		// run at the same δ keeps its committed spend equal to its
		// requested ε. (A run at a looser δ converts to a larger ε at the
		// ledger — correct, but it would overdraw its own reservation.)
		cfg.Delta = m.budget.Delta()
	}
	if m.journalDir != "" {
		// Crash safety: the job trains with periodic checkpoints under the
		// journal directory, so a daemon restart resumes it bit-for-bit
		// (core.Train picks the newest valid checkpoint up on its own).
		cfg.CheckpointDir = m.checkpointDir(id)
		cfg.CheckpointEvery = m.checkpointEvery
	}

	// The submitting request's context is long gone by the time a worker
	// picks the job up; rebuild one carrying the stored trace ID and root
	// the job's span tree in it, so every span in the per-job journal —
	// the serve.job root, train, its modules, the parallel kernels —
	// resolves to one tree stamped with the submitter's trace.
	ctx := obs.ContextWithTrace(runCtx, trace)
	jobSpan := obs.StartSpanCtx(ctx, observer, "serve.job")
	ctx = obs.ContextWithSpan(ctx, jobSpan)

	start := time.Now()
	res, err := core.Train(ctx, g, cfg)
	jobSpan.End()
	m.metrics.Histogram("serve.jobs.train_us").Observe(float64(time.Since(start).Microseconds()))

	if sink != nil {
		if ferr := sink.Flush(); ferr != nil {
			m.logf("serve: %s: journal: %v", id, ferr)
		}
		journalFile.Close()
	}

	var modelRef string
	if err == nil {
		name := req.ModelName
		if name == "" {
			name = id
		}
		var info ModelInfo
		if info, err = m.models.Put(name, 0, res.Model); err == nil {
			modelRef = info.Ref()
		}
	}

	m.mu.Lock()
	j.cancel = nil
	canceledAt := j.cancelAt
	j.status.Finished = time.Now()
	j.status.Journal = journalPath
	if res != nil {
		j.status.EpsilonSpent = res.EpsilonSpent
		j.status.Private = res.Private
	}
	if m.budget != nil && cfg.Private() {
		// Whatever the outcome, commit the noise the run released (noise
		// already added is never refunded); the commit releases the rest
		// of the reservation. It lands before the job-table append: a
		// crash in between leaves the spend recorded and the re-commit
		// idempotent, never a replayed job with a vanished charge.
		m.budget.Commit(id, tenant, fp, res.Charge())
	}
	var cerr *core.CanceledError
	switch {
	case errors.As(err, &cerr):
		// The final checkpoint (kept below: err != nil skips the
		// RemoveAll) lets a resubmitted run resume bit-for-bit.
		j.status.State = JobCanceled
		j.status.Error = err.Error()
		if !canceledAt.IsZero() {
			m.metrics.Histogram("serve.jobs.cancel_latency_us").
				Observe(float64(j.status.Finished.Sub(canceledAt).Microseconds()))
		}
	case err != nil:
		j.status.State = JobFailed
		j.status.Error = err.Error()
	default:
		j.status.State = JobDone
		j.status.Model = modelRef
	}
	m.persistLocked(j)
	m.mu.Unlock()
	if err == nil && cfg.CheckpointDir != "" {
		// A finished job has nothing to resume; failed jobs keep their
		// checkpoints for post-mortem debugging and canceled jobs keep
		// theirs so a resubmission resumes instead of restarting.
		os.RemoveAll(cfg.CheckpointDir)
	}
	switch {
	case cerr != nil:
		m.metrics.Counter("serve.jobs.canceled").Inc()
		m.logf("serve: %s canceled after %d iterations (ε spent %.4g)", id, cerr.Iter, res.EpsilonSpent)
	case err != nil:
		m.metrics.Counter("serve.jobs.failed").Inc()
		m.logf("serve: %s failed: %v", id, err)
	default:
		m.metrics.Counter("serve.jobs.completed").Inc()
		m.logf("serve: %s done: model %s", id, modelRef)
	}
}
