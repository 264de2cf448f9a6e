// Package ledger is the cross-job privacy-budget accounting layer: a
// crash-safe ledger of differential-privacy spend keyed on
// (tenant, graph fingerprint), composed at the Rényi-DP level over
// internal/dp's alpha grid so repeated training runs against the same
// graph compose tighter than naive ε-summation.
//
// Theorem 1/3 of the paper cover one training run; a serving daemon that
// accepts unlimited /v1/train jobs against the same graph lets the
// composed privacy loss grow unbounded. The ledger makes the daemon's DP
// story end-to-end with a reserve → commit/refund lifecycle:
//
//   - Reserve takes the job's requested ε off the budget at admission,
//     before the job is queued — an exhausted budget denies admission;
//   - Commit replaces the reservation with the privacy loss the run
//     actually released, whatever its outcome, as an RDP curve when the
//     charge carries the run's accountant parameters (tight composition)
//     or as a scalar ε otherwise;
//   - Refund releases the reservation of a job that never spent
//     anything (canceled while queued);
//   - Forfeit commits the full reservation of a job whose true spend is
//     unknowable (interrupted without a resumable checkpoint) — the
//     conservative, privacy-safe resolution.
//
// With a path configured the ledger is durable: every transition appends
// one fsynced JSON line to an append-only ledger.jsonl (same discipline,
// and the same nn.AppendJSON, as the serve layer's jobs.jsonl — last
// record per reference wins, corrupt lines are skipped), and Open
// replays the file so a restarted daemon resumes with the exact
// committed balance, bit for bit: committed RDP curves are re-derived
// from the persisted accountant parameters and re-accumulated in
// original commit order.
package ledger

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"privim/internal/dp"
	"privim/internal/obs"
)

// ErrExhausted is the sentinel all budget denials unwrap to.
var ErrExhausted = errors.New("privacy budget exhausted")

// ExhaustedError is a denial with the machine-readable budget position
// the HTTP layer serializes into the 403 body.
type ExhaustedError struct {
	Balance   Balance
	Requested float64
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("privacy budget exhausted for tenant %q graph %s: requested ε=%g, remaining ε=%g (budget %g, committed %g, reserved %g)",
		e.Balance.Tenant, e.Balance.Graph, e.Requested, e.Balance.Remaining,
		e.Balance.Budget, e.Balance.Committed, e.Balance.Reserved)
}

// Unwrap lets errors.Is(err, ErrExhausted) match.
func (e *ExhaustedError) Unwrap() error { return ErrExhausted }

// Charge describes the privacy loss of one completed training run.
type Charge struct {
	// Acct carries the run's accountant parameters (M, B, Ng, σ). When
	// valid and Iterations > 0, the charge composes at the RDP level:
	// its per-order curve Acct.RDPCurve(Iterations) adds into the
	// entry's accumulated curve. Deterministically re-derivable, so the
	// ledger persists the parameters, not the floats of the curve.
	Acct dp.Accountant `json:"acct"`
	// Iterations is the run's completed iteration count T.
	Iterations int `json:"iterations,omitempty"`
	// Epsilon is the run's own (ε, δ) guarantee — the scalar spend used
	// when the accountant parameters are absent. Scalars compose by
	// summation: valid, just looser than the RDP path.
	Epsilon float64 `json:"epsilon"`
}

// composable reports whether the charge carries a usable RDP curve.
func (c Charge) composable() bool {
	return c.Iterations > 0 && c.Acct.Validate() == nil
}

// Balance is the public budget position of one (tenant, graph) entry.
type Balance struct {
	Tenant string `json:"tenant"`
	// Graph is the graph.Fingerprint hex the entry is keyed on.
	Graph string `json:"graph"`
	// Budget is the enforced per-entry ε limit (0 when unenforced).
	Budget float64 `json:"budget,omitempty"`
	// Committed is the composed spend of every committed charge: the
	// accumulated RDP curve converted via Theorem 1 at the ledger's δ,
	// plus any scalar commits.
	Committed float64 `json:"committed"`
	// Reserved is the ε held by outstanding reservations.
	Reserved float64 `json:"reserved"`
	// Remaining is budget − committed − reserved, floored at 0; 0 when
	// unenforced.
	Remaining float64 `json:"remaining"`
	// Enforced says whether Reserve can deny (a budget is configured).
	Enforced bool `json:"enforced"`
}

// Options configure Open.
type Options struct {
	// Budget is the per-(tenant, graph) ε limit Reserve enforces; <= 0
	// disables enforcement (the ledger still records every spend).
	Budget float64
	// Delta is the δ at which accumulated RDP converts to the committed
	// ε (default 1e-5). Fixed per ledger: composing guarantees at
	// different δ is not meaningful.
	Delta float64
	// Path is the append-only JSONL ledger file; "" keeps the ledger in
	// memory only (tests, enforcement without durability).
	Path string
	// Observer receives a LedgerOp event per transition (nil = none).
	Observer obs.Observer
	// Logf receives operational log lines (default: discard).
	Logf func(string, ...any)
}

// key identifies one budget entry.
type key struct{ tenant, graph string }

// entry accumulates the committed spend and outstanding reservations of
// one (tenant, graph). rdp is the elementwise sum of every composable
// commit's curve, in commit order — replay re-adds in file order, which
// is the same order, so the float sum is bit-for-bit reproducible.
type entry struct {
	rdp      []float64
	scalar   float64
	reserved map[string]float64
}

// refState tracks one reservation reference through its lifecycle so
// replay and retries are idempotent.
type refState struct {
	tenant, graph string
	eps           float64
	state         string // stateReserved | stateCommitted | stateRefunded | stateForfeited
}

const (
	stateReserved  = "reserved"
	stateCommitted = "committed"
	stateRefunded  = "refunded"
	stateForfeited = "forfeited"
)

// Ledger is the cross-job budget store. Safe for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	opts    Options
	entries map[key]*entry
	refs    map[string]*refState
}

// Open builds a ledger, replaying Options.Path when it exists.
func Open(opts Options) (*Ledger, error) {
	if opts.Delta == 0 {
		opts.Delta = 1e-5
	}
	if opts.Delta <= 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("ledger: delta %v outside (0, 1)", opts.Delta)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	l := &Ledger{
		opts:    opts,
		entries: make(map[key]*entry),
		refs:    make(map[string]*refState),
	}
	if opts.Path != "" {
		if err := l.replay(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Enforced reports whether Reserve can deny admissions.
func (l *Ledger) Enforced() bool { return l.opts.Budget > 0 }

// Delta is the δ the ledger composes at. Runs charged to the ledger
// should train at this δ: a run calibrated at a looser δ converts to a
// larger ε here and can commit more than it reserved.
func (l *Ledger) Delta() float64 { return l.opts.Delta }

func (l *Ledger) entryLocked(k key) *entry {
	e, ok := l.entries[k]
	if !ok {
		e = &entry{reserved: make(map[string]float64)}
		l.entries[k] = e
	}
	return e
}

// committedLocked is the entry's composed spend: the accumulated RDP
// curve converted once at the ledger's δ, plus scalar commits.
func (e *entry) committedLocked(delta float64) float64 {
	total := e.scalar
	if e.rdp != nil {
		if eps := dp.EpsilonFromCurve(e.rdp, delta); eps > 0 {
			total += eps
		}
	}
	return total
}

// reservedLocked sums outstanding reservations in sorted-ref order, so
// the float sum is deterministic across restarts and map iteration.
func (e *entry) reservedLocked() float64 {
	refs := make([]string, 0, len(e.reserved))
	for ref := range e.reserved {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	total := 0.0
	for _, ref := range refs {
		total += e.reserved[ref]
	}
	return total
}

func (l *Ledger) balanceLocked(k key) Balance {
	b := Balance{Tenant: k.tenant, Graph: k.graph, Enforced: l.Enforced()}
	if e, ok := l.entries[k]; ok {
		b.Committed = e.committedLocked(l.opts.Delta)
		b.Reserved = e.reservedLocked()
	}
	if l.Enforced() {
		b.Budget = l.opts.Budget
		if b.Remaining = b.Budget - b.Committed - b.Reserved; b.Remaining < 0 {
			b.Remaining = 0
		}
	}
	return b
}

// Reserve holds eps of the (tenant, graph) budget under ref before a
// job is queued. It fails with an *ExhaustedError when the remaining
// budget cannot cover the request, and a plain error on a duplicate ref
// or non-positive/non-finite eps.
func (l *Ledger) Reserve(ref, tenant, graph string, eps float64) error {
	if eps <= 0 || math.IsInf(eps, 0) || math.IsNaN(eps) {
		return fmt.Errorf("ledger: cannot reserve ε=%v (want finite > 0)", eps)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.refs[ref]; ok {
		return fmt.Errorf("ledger: reference %q already %s", ref, st.state)
	}
	k := key{tenant, graph}
	if l.Enforced() {
		b := l.balanceLocked(k)
		if eps > b.Remaining {
			l.emitLocked("deny", tenant, graph, ref, eps)
			return &ExhaustedError{Balance: b, Requested: eps}
		}
	}
	l.refs[ref] = &refState{tenant: tenant, graph: graph, eps: eps, state: stateReserved}
	l.entryLocked(k).reserved[ref] = eps
	l.appendLocked(record{Ref: ref, Tenant: tenant, Graph: graph, State: stateReserved, Eps: eps})
	l.emitLocked("reserve", tenant, graph, ref, eps)
	return nil
}

// Commit replaces ref's reservation with the actually-spent charge. A
// ref the ledger has never seen commits anyway under (tenant, graph) —
// that covers jobs admitted before budget tracking existed. A ref
// already terminal is a no-op: a crash between the ledger append and the
// job-table append makes the resumed job re-commit the identical charge,
// and double-counting it would overstate the spend. An empty ref is an
// anonymous spend: it skips the reference lifecycle and always adds.
func (l *Ledger) Commit(ref, tenant, graph string, c Charge) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if st, ok := l.refs[ref]; ok {
		if st.state != stateReserved {
			l.opts.Logf("ledger: commit on %s reference %q ignored", st.state, ref)
			return
		}
		tenant, graph = st.tenant, st.graph
	}
	rec := record{Ref: ref, Tenant: tenant, Graph: graph, State: stateCommitted, Eps: c.Epsilon, Charge: &c}
	l.applyCommitLocked(rec)
	l.appendLocked(rec)
	l.emitLocked("commit", tenant, graph, ref, c.Epsilon)
}

// Refund releases ref's reservation without committing any spend — for
// jobs canceled before they ran. Unknown or terminal refs are no-ops.
func (l *Ledger) Refund(ref string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.refs[ref]
	if !ok || st.state != stateReserved {
		return
	}
	rec := record{Ref: ref, Tenant: st.tenant, Graph: st.graph, State: stateRefunded, Eps: st.eps}
	l.applyRefundLocked(rec)
	l.appendLocked(rec)
	l.emitLocked("refund", st.tenant, st.graph, ref, rec.Eps)
}

// Forfeit commits ref's full reservation as scalar spend — for
// interrupted jobs whose true spend is unknowable. Conservative by
// construction: the run spent at most what it reserved. Unknown or
// terminal refs are no-ops.
func (l *Ledger) Forfeit(ref string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st, ok := l.refs[ref]
	if !ok || st.state != stateReserved {
		return
	}
	rec := record{Ref: ref, Tenant: st.tenant, Graph: st.graph, State: stateForfeited, Eps: st.eps}
	l.applyForfeitLocked(rec)
	l.appendLocked(rec)
	l.emitLocked("forfeit", st.tenant, st.graph, ref, rec.Eps)
}

// Balance returns the budget position of one (tenant, graph) entry.
func (l *Ledger) Balance(tenant, graph string) Balance {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.balanceLocked(key{tenant, graph})
}

// Balances returns every entry of the tenant, sorted by graph.
func (l *Ledger) Balances(tenant string) []Balance {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Balance
	for k := range l.entries {
		if k.tenant == tenant {
			out = append(out, l.balanceLocked(k))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Graph < out[j].Graph })
	return out
}

// PublishPositions emits one synthetic LedgerOp (Op "sync") per tenant
// with the current committed/reserved totals. Replay does not emit
// events, so after a restart the per-tenant gauges (and any burn-rate
// history built on them) would otherwise start from zero and misread
// the first post-restart commit as the whole balance; the serve layer
// calls this once at startup to seed the baselines. Tenants are emitted
// in sorted order, keeping the resulting metric creation deterministic.
func (l *Ledger) PublishPositions() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.Observer == nil {
		return
	}
	tenants := make(map[string]bool, len(l.entries))
	for k := range l.entries {
		tenants[k.tenant] = true
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		l.emitLocked("sync", t, "", "", 0)
	}
}

// --- shared state transitions (runtime ops and replay both run these) ---

func (l *Ledger) applyReserveLocked(rec record) {
	if _, ok := l.refs[rec.Ref]; ok {
		return
	}
	l.refs[rec.Ref] = &refState{tenant: rec.Tenant, graph: rec.Graph, eps: rec.Eps, state: stateReserved}
	l.entryLocked(key{rec.Tenant, rec.Graph}).reserved[rec.Ref] = rec.Eps
}

func (l *Ledger) applyCommitLocked(rec record) {
	if rec.Ref != "" {
		if st, ok := l.refs[rec.Ref]; ok {
			if st.state != stateReserved {
				return
			}
			st.state = stateCommitted
			delete(l.entryLocked(key{st.tenant, st.graph}).reserved, rec.Ref)
		} else {
			l.refs[rec.Ref] = &refState{tenant: rec.Tenant, graph: rec.Graph, state: stateCommitted}
		}
	}
	e := l.entryLocked(key{rec.Tenant, rec.Graph})
	if c := rec.Charge; c != nil && c.composable() {
		e.rdp = dp.AddCurve(e.rdp, c.Acct.RDPCurve(c.Iterations))
	} else if rec.Eps > 0 {
		e.scalar += rec.Eps
	}
}

func (l *Ledger) applyRefundLocked(rec record) {
	st, ok := l.refs[rec.Ref]
	if !ok || st.state != stateReserved {
		return
	}
	st.state = stateRefunded
	delete(l.entryLocked(key{st.tenant, st.graph}).reserved, rec.Ref)
}

func (l *Ledger) applyForfeitLocked(rec record) {
	st, ok := l.refs[rec.Ref]
	if !ok || st.state != stateReserved {
		return
	}
	st.state = stateForfeited
	e := l.entryLocked(key{st.tenant, st.graph})
	delete(e.reserved, rec.Ref)
	e.scalar += rec.Eps
}

// emitLocked reports one transition with the tenant's totals after it.
func (l *Ledger) emitLocked(op, tenant, graph, ref string, eps float64) {
	if l.opts.Observer == nil {
		return
	}
	var committed, reserved float64
	keys := make([]key, 0, len(l.entries))
	for k := range l.entries {
		if k.tenant == tenant {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].graph < keys[j].graph })
	for _, k := range keys {
		e := l.entries[k]
		committed += e.committedLocked(l.opts.Delta)
		reserved += e.reservedLocked()
	}
	l.opts.Observer.Emit(obs.LedgerOp{
		Op: op, Tenant: tenant, Graph: graph, Ref: ref,
		Epsilon: eps, Committed: committed, Reserved: reserved,
	})
}
