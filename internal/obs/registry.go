package obs

import (
	"expvar"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// MetricKind discriminates the three metric types a Registry holds.
type MetricKind uint8

// The metric kinds, in the order Entries sorts equal names (names are
// unique per kind map, so ties only matter for a name registered as two
// kinds — both are listed).
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String names the kind for diagnostics and JSON.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Entry is one named metric in the registry's stable iteration order.
// Exactly one of Counter/Gauge/Histogram is non-nil, per Kind. Handles
// are live: reading them later sees the current value, so consumers (the
// history sampler) can cache an Entries snapshot and re-read cheaply.
type Entry struct {
	Name      string
	Kind      MetricKind
	Counter   *Counter
	Gauge     *Gauge
	Histogram *Histogram
}

// Registry is a named-metric store and an Observer that aggregates the
// event stream into live counters, gauges, and histograms — the
// in-memory snapshot a debug endpoint exports while a run is in flight.
//
// Metric handles are get-or-create and stable, so hot paths can cache
// them; Snapshot is cheap enough to serve per scrape. Iteration (Entries,
// Snapshot) is sorted by name and stable across runs — labeled gauges
// included — so history series keys and exported JSON are deterministic
// across restarts, not subject to map order.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// entries is every metric in sorted-name order, maintained on
	// creation; version bumps with each insertion so consumers can cache.
	entries []Entry
	version atomic.Uint64

	rtOnce sync.Once
	rt     *runtimeStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// insertLocked adds e to the sorted entry list and bumps the version.
func (r *Registry) insertLocked(e Entry) {
	i := sort.Search(len(r.entries), func(i int) bool {
		if r.entries[i].Name != e.Name {
			return r.entries[i].Name > e.Name
		}
		return r.entries[i].Kind >= e.Kind
	})
	r.entries = append(r.entries, Entry{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = e
	r.version.Add(1)
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.insertLocked(Entry{Name: name, Kind: KindCounter, Counter: c})
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.insertLocked(Entry{Name: name, Kind: KindGauge, Gauge: g})
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
		r.insertLocked(Entry{Name: name, Kind: KindHistogram, Histogram: h})
	}
	return h
}

// Version counts metric insertions. A consumer holding an Entries
// snapshot needs to refresh only when Version has moved — in steady
// state (no new metric names) the registry's shape is immutable.
func (r *Registry) Version() uint64 { return r.version.Load() }

// Entries appends every metric to buf[:0] in sorted-name order and
// returns it. Passing the previous result back avoids allocation once
// the capacity has grown to fit — the history sampler's zero-alloc tick
// depends on this.
func (r *Registry) Entries(buf []Entry) []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(buf[:0], r.entries...)
}

// Emit implements Observer: every event updates a standard set of
// metrics, keyed by subsystem ("train.*", "diffusion.*", "im.*",
// "sampling.*", "span.*").
func (r *Registry) Emit(e Event) {
	switch ev := e.(type) {
	case SpanStart:
		r.Gauge("span.open").Inc()
	case SpanEnd:
		r.Gauge("span.open").Dec()
		r.Counter("span.closed").Inc()
		r.Histogram("span." + ev.Span + ".us").Observe(float64(ev.Elapsed) / float64(time.Microsecond))
	case SpanSlow:
		r.Counter("span.slow").Inc()
		r.Histogram("span.slow.us").Observe(float64(ev.Elapsed) / float64(time.Microsecond))
	case IterationEnd:
		// Loss, gradient norm and clip fraction are unnoised statistics of
		// the (private) training data; the registry feeds endpoints that
		// no ledger charges, so only progress and spend land here.
		r.Counter("train.iterations").Inc()
		r.Gauge("train.epsilon_spent").Set(ev.EpsilonSpent)
	case MCBatchDone:
		r.Counter("diffusion.batches").Inc()
		r.Counter("diffusion.simulations").Add(int64(ev.Rounds))
		r.Gauge("diffusion.sims_per_sec").Set(ev.SimsPerSec)
		r.Gauge("diffusion.mean_spread").Set(ev.MeanSpread)
		r.Histogram("diffusion.cascade_size").Merge(ev.SizeBuckets, ev.MeanSpread*float64(ev.Rounds))
	case SeedSelected:
		r.Counter("im.seeds_selected").Inc()
		r.Gauge("im.marginal_gain").Set(ev.MarginalGain)
		r.Gauge("im.evaluations").Set(float64(ev.Evaluations))
		r.Gauge("im.lookups_saved").Set(float64(ev.LookupsSaved))
	case ParallelFor:
		r.Counter("parallel.calls").Inc()
		r.Counter("parallel.tasks").Add(int64(ev.Tasks))
		r.Gauge("parallel." + ev.Site + ".workers").Set(float64(ev.Workers))
		r.Gauge("parallel." + ev.Site + ".imbalance").Set(ev.Imbalance)
		r.Histogram("parallel." + ev.Site + ".us").Observe(float64(ev.Elapsed) / float64(time.Microsecond))
	case CheckpointSaved:
		r.Counter("train.checkpoint.saved").Inc()
		r.Gauge("train.checkpoint.iter").Set(float64(ev.Iter))
		r.Histogram("train.checkpoint.bytes").Observe(float64(ev.Bytes))
		r.Histogram("train.checkpoint.save_us").Observe(float64(ev.Elapsed) / float64(time.Microsecond))
	case CheckpointResumed:
		r.Counter("train.checkpoint.resumed").Inc()
		r.Gauge("train.checkpoint.iter").Set(float64(ev.Iter))
	case CheckpointRejected:
		r.Counter("train.checkpoint.rejected").Inc()
	case LedgerOp:
		r.Counter("ledger." + ev.Op).Inc()
		// Per-tenant budget position as labeled gauges (PR 6 Prometheus
		// labels), so operators can alert on a tenant nearing exhaustion.
		r.Gauge(Labeled("ledger.epsilon_committed", "tenant", ev.Tenant)).Set(ev.Committed)
		r.Gauge(Labeled("ledger.epsilon_reserved", "tenant", ev.Tenant)).Set(ev.Reserved)
	case Canceled:
		r.Counter("cancel." + ev.Phase).Inc()
		if ev.Latency > 0 {
			r.Histogram("cancel." + ev.Phase + ".latency_us").Observe(float64(ev.Latency) / float64(time.Microsecond))
		}
	case AlertFired:
		r.Counter("alert.fired").Inc()
		r.Gauge("alert.active").Inc()
	case AlertResolved:
		r.Counter("alert.resolved").Inc()
		r.Gauge("alert.active").Dec()
	case ExtractionDone:
		// Subgraph and walk counts, walk lengths and occurrences describe
		// the private training graph, so only the run count lands here.
		r.Counter("sampling.extractions").Inc()
	}
}

// Snapshot returns a JSON-serializable view of every metric, built in
// the registry's sorted iteration order.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.entries))
	for _, e := range r.entries {
		switch e.Kind {
		case KindCounter:
			out[e.Name] = e.Counter.Value()
		case KindGauge:
			out[e.Name] = e.Gauge.Value()
		case KindHistogram:
			out[e.Name] = e.Histogram.Snapshot()
		}
	}
	return out
}

// Publish exports the registry's live snapshot under name in the
// process-wide expvar namespace (served at /debug/vars by the debug
// endpoint). Publishing an already-taken name is an error rather than
// the panic expvar.Publish raises.
func (r *Registry) Publish(name string) error {
	if expvar.Get(name) != nil {
		return fmt.Errorf("obs: expvar name %q already published", name)
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return nil
}
