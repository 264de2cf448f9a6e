// Package obs is the observability layer of the PrivIM pipeline: typed
// training/selection events, a pluggable Observer interface, lock-free
// counters/gauges/histograms, nested span timers, a JSONL run-journal
// sink, and an in-memory metrics registry exportable via expvar.
//
// Design constraints:
//
//   - stdlib only, like the rest of the repo;
//   - a nil Observer must cost nothing on the hot paths: every
//     instrumentation site goes through the nil-checking Emit helper (or
//     a nil *Span), so the interface boxing that building an event
//     requires only happens once an observer is actually attached
//     (verified by BenchmarkTrainNoObserver at the repo root);
//   - events are plain data (no callbacks into pipeline internals), so
//     sinks can serialize, aggregate, or forward them freely.
package obs

import "time"

// Event is one typed occurrence inside the pipeline. The concrete types
// below form the whole taxonomy; EventKind returns the stable wire name
// used by the JSONL journal.
type Event interface {
	EventKind() string
}

// Observer consumes pipeline events. Implementations must be safe for
// concurrent use: diffusion estimation and per-sample gradient passes
// emit from worker goroutines.
type Observer interface {
	Emit(Event)
}

// Emit forwards ev to o when o is non-nil. The generic parameter keeps
// the event → interface conversion inside the non-nil branch, so calling
// Emit with a nil observer performs zero allocations — the contract the
// instrumentation sites in internal/privim, internal/diffusion,
// internal/im, and internal/sampling rely on.
func Emit[E Event](o Observer, ev E) {
	if o == nil {
		return
	}
	o.Emit(ev)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Emit implements Observer.
func (f ObserverFunc) Emit(e Event) { f(e) }

// Multi fans events out to every non-nil observer. It returns nil when
// none remain (so the result stays no-op-cheap) and the sole observer
// when only one remains (skipping the fan-out indirection).
func Multi(os ...Observer) Observer {
	live := make([]Observer, 0, len(os))
	for _, o := range os {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multi(live)
}

type multi []Observer

func (m multi) Emit(e Event) {
	for _, o := range m {
		o.Emit(e)
	}
}

// SpanStart marks the opening of a timed span. Parent is the ID of the
// enclosing span (0 for roots), giving sinks the full nesting tree;
// Trace ties the span to the request/run/job that caused it (see
// trace.go).
type SpanStart struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Span   string `json:"span"`
}

// EventKind implements Event.
func (SpanStart) EventKind() string { return "span_start" }

// SpanEnd closes a span opened by SpanStart with the same ID.
type SpanEnd struct {
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent,omitempty"`
	Trace   string        `json:"trace,omitempty"`
	Span    string        `json:"span"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// EventKind implements Event.
func (SpanEnd) EventKind() string { return "span_end" }

// SpanSlow reports a span exceeding the slow-span watchdog's threshold —
// either caught in flight by the watchdog's ticker (the span is still
// open, Elapsed is its age so far) or at End. At most one SpanSlow is
// emitted per span.
type SpanSlow struct {
	ID    uint64 `json:"id"`
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span"`
	// Elapsed is how long the span had been open when it was flagged.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Threshold is the watchdog limit the span crossed.
	Threshold time.Duration `json:"threshold_ns"`
}

// EventKind implements Event.
func (SpanSlow) EventKind() string { return "span_slow" }

// IterationEnd reports one DP-SGD iteration of Algorithm 2 (Module 3).
type IterationEnd struct {
	// Iter is the 0-based iteration index.
	Iter int `json:"iter"`
	// Loss is the mean per-sample training loss before noise (what the
	// model optimizes; mirrors Result.LossHistory).
	Loss float64 `json:"loss"`
	// GradNorm is the mean per-sample pre-clip gradient l2 norm.
	GradNorm float64 `json:"grad_norm"`
	// ClipFraction is the fraction of batch samples whose gradient
	// exceeded the clip bound C.
	ClipFraction float64 `json:"clip_fraction"`
	// EpsilonSpent is the accountant's (ε, δ) guarantee for the
	// iterations completed so far (0 for non-private runs); it is
	// monotone nondecreasing across a run and its final value equals
	// Result.EpsilonSpent.
	EpsilonSpent float64 `json:"epsilon_spent"`
}

// EventKind implements Event.
func (IterationEnd) EventKind() string { return "iteration_end" }

// MCBatchDone reports one completed Monte-Carlo spread estimation batch.
type MCBatchDone struct {
	// Model is the diffusion model name ("ic", "lt", "sis").
	Model string `json:"model"`
	// Rounds is the number of simulations in the batch.
	Rounds int `json:"rounds"`
	// MeanSpread is the batch's spread estimate.
	MeanSpread float64 `json:"mean_spread"`
	// Elapsed is the wall-clock batch duration.
	Elapsed time.Duration `json:"elapsed_ns"`
	// SimsPerSec is the batch's simulation throughput.
	SimsPerSec float64 `json:"sims_per_sec"`
	// SizeBuckets is the cascade-size histogram of the batch on the
	// package's log-scale buckets (see BucketIndex).
	SizeBuckets [NumBuckets]uint64 `json:"size_buckets"`
}

// EventKind implements Event.
func (MCBatchDone) EventKind() string { return "mc_batch_done" }

// SeedSelected reports one seed picked by a greedy/CELF IM solver.
type SeedSelected struct {
	// K is the 1-based position of this seed in the selection order.
	K int `json:"k"`
	// Node is the selected node ID.
	Node int64 `json:"node"`
	// MarginalGain is the node's marginal spread gain when picked.
	MarginalGain float64 `json:"marginal_gain"`
	// Evaluations is the solver's cumulative spread-estimate count.
	Evaluations int `json:"evaluations"`
	// LookupsSaved is the cumulative number of spread estimates lazy
	// evaluation skipped versus plain greedy (0 for non-lazy solvers).
	LookupsSaved int `json:"lookups_saved"`
}

// EventKind implements Event.
func (SeedSelected) EventKind() string { return "seed_selected" }

// ExtractionDone reports one subgraph-extraction pass (Module 1).
type ExtractionDone struct {
	// Stage names the extraction scheme: "rwr" (Algorithm 1), "scs" /
	// "bes" (the two stages of Algorithm 3).
	Stage string `json:"stage"`
	// Subgraphs is the number of subgraphs the stage emitted.
	Subgraphs int `json:"subgraphs"`
	// Walks is the number of random walks started (including walks that
	// failed to collect a full subgraph).
	Walks int `json:"walks"`
	// MaxOccurrence is the audited maximum per-node subgraph count after
	// this stage.
	MaxOccurrence int `json:"max_occurrence"`
	// WalkLenBuckets histograms the steps consumed per walk.
	WalkLenBuckets [NumBuckets]uint64 `json:"walk_len_buckets"`
	// OccurrenceBuckets histograms the per-node occurrence counts of
	// nodes appearing in at least one subgraph.
	OccurrenceBuckets [NumBuckets]uint64 `json:"occurrence_buckets"`
}

// EventKind implements Event.
func (ExtractionDone) EventKind() string { return "extraction_done" }

// ParallelFor reports worker-pool activity at one instrumented fan-out
// site (internal/parallel), so parallel speedups are observable rather
// than asserted: Workers says how wide the site actually ran, Tasks how
// much work it split, Imbalance how evenly the pool balanced it.
type ParallelFor struct {
	// Site names the fan-out site ("train.dpsgd", "im.ris.rrsets",
	// "im.celf.initial", ...).
	Site string `json:"site"`
	// Workers is the number of goroutines the site ran on (1 = inline
	// serial execution).
	Workers int `json:"workers"`
	// Tasks is the number of work items processed (samples, RR sets,
	// candidates, row panels).
	Tasks int `json:"tasks"`
	// Chunks is the number of grain-sized ranges the pool scheduled.
	Chunks int `json:"chunks"`
	// Imbalance is (max−min)/chunks over per-worker chunk counts: 0 is a
	// perfectly even split, values near 1 mean one worker did nearly
	// everything.
	Imbalance float64 `json:"imbalance"`
	// Elapsed is the wall-clock time of the fanned-out region.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// EventKind implements Event.
func (ParallelFor) EventKind() string { return "parallel_for" }

// CheckpointSaved reports one durable training checkpoint written by the
// crash-safe training loop (internal/privim with Config.CheckpointEvery
// set): the state needed to resume bit-for-bit — parameters, optimizer
// moments, completed iterations, privacy-accounting position — landed on
// disk atomically.
type CheckpointSaved struct {
	// Iter is the number of completed iterations the checkpoint captures.
	Iter int `json:"iter"`
	// Path is the checkpoint file written.
	Path string `json:"path"`
	// Bytes is the checkpoint payload size.
	Bytes int64 `json:"bytes"`
	// Elapsed is the wall-clock encode+fsync+rename time.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// EventKind implements Event.
func (CheckpointSaved) EventKind() string { return "checkpoint_saved" }

// CheckpointResumed reports a training run continuing from a checkpoint
// instead of iteration 0. The resumed run is bit-for-bit identical to an
// uninterrupted one (same model, seed set, ε spent).
type CheckpointResumed struct {
	// Iter is the iteration training resumes from (completed iterations).
	Iter int `json:"iter"`
	// Path is the checkpoint file the state was restored from.
	Path string `json:"path"`
}

// EventKind implements Event.
func (CheckpointResumed) EventKind() string { return "checkpoint_resumed" }

// LedgerOp reports one privacy-budget ledger transition
// (internal/ledger): a reservation taken at job admission, a commit of
// actually-spent ε at completion, a refund on cancel, a forfeit of the
// full reservation when an interrupted job's true spend is unknowable,
// or a denial because the (tenant, graph) budget is exhausted.
type LedgerOp struct {
	// Op is "reserve", "commit", "refund", "forfeit", or "deny".
	Op string `json:"op"`
	// Tenant and Graph key the budget entry (Graph is the
	// graph.Fingerprint hex of the trained graph).
	Tenant string `json:"tenant"`
	Graph  string `json:"graph"`
	// Ref is the reservation reference (the job ID or CLI run ID).
	Ref string `json:"ref,omitempty"`
	// Epsilon is the ε this operation moved (requested on reserve/deny,
	// actually spent on commit, released on refund/forfeit).
	Epsilon float64 `json:"epsilon"`
	// Committed and Reserved are the tenant's totals across all graphs
	// after the operation — what the per-tenant gauges export.
	Committed float64 `json:"committed"`
	Reserved  float64 `json:"reserved"`
}

// EventKind implements Event.
func (LedgerOp) EventKind() string { return "ledger_op" }

// CheckpointRejected reports a checkpoint file that failed verification
// (truncation, checksum mismatch, config/graph fingerprint mismatch) and
// was skipped; the loader falls back to the previous good checkpoint, or
// to a fresh start when none survives.
type CheckpointRejected struct {
	// Path is the rejected file.
	Path string `json:"path"`
	// Reason is the verification failure.
	Reason string `json:"reason"`
}

// EventKind implements Event.
func (CheckpointRejected) EventKind() string { return "checkpoint_rejected" }

// Canceled reports one compute phase stopping early on a canceled or
// deadline-expired context: DP-SGD training, a Monte-Carlo estimate,
// RR-set generation, or a greedy/CELF seed-selection pass. Done/Total
// record the partial progress at the stop point (iterations, rounds, RR
// sets, or seeds, by phase); Latency is the time from the context firing
// to the kernel actually returning — the cancellation latency the serve
// layer's 2 s stop budget is built from.
type Canceled struct {
	// Phase is the compute phase that stopped: "train", "estimate",
	// "rrgen", "select", or "query".
	Phase string `json:"phase"`
	// Done and Total count the phase's work units at the stop point.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Reason is the context error ("context canceled",
	// "context deadline exceeded").
	Reason string `json:"reason"`
	// Latency is ctx-fired → kernel-returned, when the kernel can
	// observe it (0 otherwise).
	Latency time.Duration `json:"latency_ns"`
}

// EventKind implements Event.
func (Canceled) EventKind() string { return "canceled" }

// AlertFired reports an alert rule (internal/obs/history) transitioning
// from quiet to firing on one matched series: the observed value crossed
// the rule's bound on a sampler tick. At most one AlertFired is emitted
// per (rule, series) until the alert resolves.
type AlertFired struct {
	// Rule is the rule name ("tenant-epsilon-burn", "job-queue-depth").
	Rule string `json:"rule"`
	// Metric is the matched history series key, including any Prometheus
	// label set (`ledger.epsilon_committed{tenant="a"}`).
	Metric string `json:"metric"`
	// Value is the observed figure that breached: the sample for
	// threshold rules, the change over the window for delta rules, the
	// per-second consumption rate for burn-rate rules.
	Value float64 `json:"value"`
	// Threshold is the bound Value crossed (for burn-rate rules, the
	// sustainable rate times the rule's multiplier).
	Threshold float64 `json:"threshold"`
	// Profile is the CPU-profile artifact path a triggered capture will
	// write ("" when profile capture is disabled or busy).
	Profile string `json:"profile,omitempty"`
}

// EventKind implements Event.
func (AlertFired) EventKind() string { return "alert_fired" }

// AlertResolved reports a firing alert's series dropping back within its
// rule's bound.
type AlertResolved struct {
	Rule   string `json:"rule"`
	Metric string `json:"metric"`
	// Value is the observed figure at resolution.
	Value float64 `json:"value"`
	// After is how long the alert had been firing.
	After time.Duration `json:"after_ns"`
}

// EventKind implements Event.
func (AlertResolved) EventKind() string { return "alert_resolved" }
