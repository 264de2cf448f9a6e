// Package history adds a retrospective layer to the point-in-time
// metrics in internal/obs: a fixed-capacity ring-buffer time series per
// registry metric (counters, gauges, histogram count/p50/p95/p99, and Go
// runtime metrics), sampled on a periodic tick, plus an alert-rule
// engine (threshold, delta, SLO burn-rate) evaluated on the same tick
// that emits obs.AlertFired/AlertResolved events and can trigger pprof
// capture into a bounded on-disk profile ring.
//
// The sampler's tick is allocation-free in steady state: series slots
// are resolved against the registry only when Registry.Version moves (a
// new metric name appeared), rings are pre-allocated at their fixed
// capacity, and rule evaluation touches no maps or closures. A quiet
// tick — no new metrics, no alert transitions — performs zero heap
// allocations, so a 1 s cadence adds no GC pressure to a serving
// process. Alert transitions allocate (event payloads, history entries);
// they are rare by construction.
package history

import (
	"sort"
	"strings"
	"sync"
	"time"

	"privim/internal/obs"
)

// Point is one sample: nanosecond wall-clock timestamp and value.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// ring is a fixed-capacity circular buffer of Points. Zero alloc after
// construction: push overwrites the oldest sample once full.
type ring struct {
	pts  []Point
	head int // next write index
	n    int // valid points (≤ len(pts))
}

func newRing(capacity int) *ring { return &ring{pts: make([]Point, capacity)} }

func (r *ring) push(t int64, v float64) {
	r.pts[r.head] = Point{T: t, V: v}
	r.head = (r.head + 1) % len(r.pts)
	if r.n < len(r.pts) {
		r.n++
	}
}

// at returns the i-th valid point, oldest first (0 ≤ i < n).
func (r *ring) at(i int) Point {
	return r.pts[(r.head-r.n+i+len(r.pts))%len(r.pts)]
}

// bounds returns the oldest point with T ≥ since and the newest point.
// ok is false with fewer than two points in the window (no delta or rate
// is computable from a single sample).
func (r *ring) bounds(since int64) (first, last Point, ok bool) {
	if r.n == 0 {
		return Point{}, Point{}, false
	}
	last = r.at(r.n - 1)
	for i := 0; i < r.n; i++ {
		p := r.at(i)
		if p.T >= since {
			return p, last, p.T < last.T
		}
	}
	return Point{}, Point{}, false
}

// window appends the points with T ≥ since to buf, oldest first.
func (r *ring) window(since int64, buf []Point) []Point {
	for i := 0; i < r.n; i++ {
		if p := r.at(i); p.T >= since {
			buf = append(buf, p)
		}
	}
	return buf
}

// series is one named time series plus the precomputed label-stripped
// base rules and queries match against.
type series struct {
	key  string
	base string // key with any {labels} segment removed
	ring *ring
}

// slot binds one registry entry to its series. Counters and gauges fill
// s[0]; histograms expand into count/p50/p95/p99 (s[0..3]).
type slot struct {
	kind    obs.MetricKind
	counter *obs.Counter
	gauge   *obs.Gauge
	hist    *obs.Histogram
	s       [4]*series
}

// histSuffixes are the derived series a histogram expands into.
var histSuffixes = [4]string{".count", ".p50", ".p95", ".p99"}

// Options configures a Sampler.
type Options struct {
	// Registry to sample; required.
	Registry *obs.Registry
	// Every is the tick period. Default 10s.
	Every time.Duration
	// Capacity is the per-series point capacity. Default 360 (an hour of
	// history at the default tick).
	Capacity int
	// Rules are evaluated on every tick.
	Rules []Rule
	// Observer receives AlertFired/AlertResolved events (in addition to
	// Registry, which always aggregates them). Optional.
	Observer obs.Observer
	// Profiles, when non-nil, captures a pprof profile pair when a rule
	// fires; the heap-profile path is recorded in the alert.
	Profiles *ProfileRing
	// AlertHistory bounds the recent-alert list served by /v1/alerts.
	// Default 64.
	AlertHistory int
}

func (o *Options) fillDefaults() {
	if o.Every <= 0 {
		o.Every = 10 * time.Second
	}
	if o.Capacity <= 0 {
		o.Capacity = 360
	}
	if o.AlertHistory <= 0 {
		o.AlertHistory = 64
	}
}

// Sampler periodically snapshots every registry metric into ring-buffer
// time series and evaluates alert rules against them. Construct with
// New, drive with Start/Close (or call Tick directly in tests).
type Sampler struct {
	opts Options
	reg  *obs.Registry
	obs  obs.Observer

	mu       sync.Mutex
	version  uint64
	entryBuf []obs.Entry
	slots    []slot
	byKey    map[string]*series
	states   []alertState
	active   int // firing states (kept so handlers can size responses)
	recent   []*Alert

	stop chan struct{}
	done chan struct{}
}

// New builds a sampler over opts.Registry. It does not start the tick
// goroutine; call Start, or drive Tick manually.
func New(opts Options) *Sampler {
	opts.fillDefaults()
	s := &Sampler{
		opts:  opts,
		reg:   opts.Registry,
		obs:   obs.Multi(opts.Registry, opts.Observer),
		byKey: make(map[string]*series),
	}
	return s
}

// Start launches the periodic tick goroutine. Close stops it.
func (s *Sampler) Start() {
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		tick := time.NewTicker(s.opts.Every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-tick.C:
				s.Tick(now)
			}
		}
	}()
}

// Close stops the tick goroutine and waits for it to exit. Safe to call
// without Start and safe to call twice.
func (s *Sampler) Close() {
	if s.stop == nil {
		return
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// Tick takes one sample: refresh the Go runtime metrics, push every
// metric's current value into its series, and evaluate the alert rules.
// now is passed in (rather than read inside) so tests control time.
// Steady state — no new metric names, no alert transitions — allocates
// nothing.
func (s *Sampler) Tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg.SampleRuntime()
	if v := s.reg.Version(); v != s.version {
		s.refreshLocked(v)
	}
	t := now.UnixNano()
	for i := range s.slots {
		sl := &s.slots[i]
		switch sl.kind {
		case obs.KindCounter:
			sl.s[0].ring.push(t, float64(sl.counter.Value()))
		case obs.KindGauge:
			sl.s[0].ring.push(t, sl.gauge.Value())
		case obs.KindHistogram:
			sl.s[0].ring.push(t, float64(sl.hist.Count()))
			sl.s[1].ring.push(t, sl.hist.Quantile(0.50))
			sl.s[2].ring.push(t, sl.hist.Quantile(0.95))
			sl.s[3].ring.push(t, sl.hist.Quantile(0.99))
		}
	}
	s.evalLocked(t)
}

// stripLabels removes the {…} label segment from a series key:
// `ledger.epsilon_committed{tenant="a"}` → `ledger.epsilon_committed`,
// `serve.http.latency_us{route="GET /x"}.p99` → `serve.http.latency_us.p99`.
func stripLabels(key string) string {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key
	}
	j := strings.LastIndexByte(key, '}')
	if j < i {
		return key
	}
	return key[:i] + key[j+1:]
}

// refreshLocked re-resolves slots and rule targets against the registry.
// Existing series keep their rings (history survives a refresh); only
// genuinely new metrics allocate. Runs only when Registry.Version moved.
func (s *Sampler) refreshLocked(version uint64) {
	s.entryBuf = s.reg.Entries(s.entryBuf)
	s.slots = s.slots[:0]
	mk := func(key string) *series {
		sr, ok := s.byKey[key]
		if !ok {
			sr = &series{key: key, base: stripLabels(key), ring: newRing(s.opts.Capacity)}
			s.byKey[key] = sr
		}
		return sr
	}
	for _, e := range s.entryBuf {
		sl := slot{kind: e.Kind, counter: e.Counter, gauge: e.Gauge, hist: e.Histogram}
		if e.Kind == obs.KindHistogram {
			for i, suf := range histSuffixes {
				sl.s[i] = mk(histKey(e.Name, suf))
			}
		} else {
			sl.s[0] = mk(e.Name)
		}
		s.slots = append(s.slots, sl)
	}
	s.refreshStatesLocked()
	s.version = version
}

// histKey appends a derived-series suffix after any label segment, so
// labels stay attached to the base: `h{route="x"}` + ".p99" →
// `h{route="x"}.p99` (and stripLabels of that is `h.p99`).
func histKey(name, suffix string) string { return name + suffix }

// Query returns every series whose key or label-stripped base equals
// metric, windowed to the trailing window (0 = everything retained),
// with min/max and the first→last rate per second. Results are sorted by
// key. It allocates; it is a handler path, not the tick path.
func (s *Sampler) Query(metric string, window time.Duration, now time.Time) []Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	since := int64(0)
	if window > 0 {
		since = now.Add(-window).UnixNano()
	}
	var out []Series
	for key, sr := range s.byKey {
		if key != metric && sr.base != metric {
			continue
		}
		pts := sr.ring.window(since, nil)
		if len(pts) == 0 {
			continue
		}
		se := Series{Metric: key, Points: pts, Min: pts[0].V, Max: pts[0].V}
		for _, p := range pts {
			if p.V < se.Min {
				se.Min = p.V
			}
			if p.V > se.Max {
				se.Max = p.V
			}
		}
		if f, l := pts[0], pts[len(pts)-1]; l.T > f.T {
			se.Rate = (l.V - f.V) / (float64(l.T-f.T) / float64(time.Second))
		}
		out = append(out, se)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// Keys returns every series key, sorted — the discovery listing the
// stats handler serves when no metric is selected.
func (s *Sampler) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Series is one windowed query result.
type Series struct {
	Metric string  `json:"metric"`
	Points []Point `json:"points"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Rate is (last−first)/(Δt seconds) across the window — the average
	// growth rate, meaningful for counters and monotone gauges.
	Rate float64 `json:"rate_per_sec"`
}
