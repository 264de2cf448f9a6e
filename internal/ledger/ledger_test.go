package ledger

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"privim/internal/dp"
	"privim/internal/obs"
)

const fpA = "00000000deadbeef"

func testAcct() dp.Accountant { return dp.Accountant{M: 64, B: 16, Ng: 4, Sigma: 2} }

func trainCharge(acct dp.Accountant, T int, delta float64) Charge {
	return Charge{Acct: acct, Iterations: T, Epsilon: acct.Epsilon(T, delta)}
}

func mustOpen(t *testing.T, opts Options) *Ledger {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestReserveCommitLifecycle(t *testing.T) {
	l := mustOpen(t, Options{Budget: 10})
	if err := l.Reserve("job-1", "acme", fpA, 3); err != nil {
		t.Fatal(err)
	}
	b := l.Balance("acme", fpA)
	if b.Reserved != 3 || b.Committed != 0 || b.Remaining != 7 || !b.Enforced {
		t.Fatalf("after reserve: %+v", b)
	}
	ch := trainCharge(testAcct(), 10, 1e-5)
	l.Commit("job-1", "acme", fpA, ch)
	b = l.Balance("acme", fpA)
	if b.Reserved != 0 {
		t.Fatalf("commit left reservation: %+v", b)
	}
	if b.Committed <= 0 || b.Committed > ch.Epsilon*1.0001 {
		t.Fatalf("committed %v, want (0, %v]", b.Committed, ch.Epsilon)
	}
	// Unknown tenants are empty, not errors.
	if b := l.Balance("ghost", fpA); b.Committed != 0 || b.Reserved != 0 {
		t.Fatalf("ghost tenant: %+v", b)
	}
}

func TestReserveDeniesWhenExhausted(t *testing.T) {
	l := mustOpen(t, Options{Budget: 5})
	if err := l.Reserve("a", "t", fpA, 4); err != nil {
		t.Fatal(err)
	}
	err := l.Reserve("b", "t", fpA, 2)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("over-budget reserve = %v, want ErrExhausted", err)
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("error %T carries no ExhaustedError", err)
	}
	if ex.Requested != 2 || ex.Balance.Remaining != 1 {
		t.Fatalf("denial detail: %+v", ex)
	}
	// Another tenant, and another graph of the same tenant, are isolated.
	if err := l.Reserve("c", "other", fpA, 4); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("d", "t", "feedfacefeedface", 4); err != nil {
		t.Fatal(err)
	}
	// Refund frees the budget again.
	l.Refund("a")
	if err := l.Reserve("e", "t", fpA, 5); err != nil {
		t.Fatalf("reserve after refund: %v", err)
	}
}

func TestReserveValidation(t *testing.T) {
	l := mustOpen(t, Options{Budget: 5})
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if err := l.Reserve("r", "t", fpA, eps); err == nil {
			t.Fatalf("reserve ε=%v accepted", eps)
		}
	}
	if err := l.Reserve("dup", "t", fpA, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("dup", "t", fpA, 1); err == nil {
		t.Fatal("duplicate reference accepted")
	}
}

// TestRDPCompositionTighterThanScalar: two half-length runs committed as
// RDP curves compose to exactly one full-length run's ε — strictly below
// the naive sum of their individual guarantees.
func TestRDPCompositionTighterThanScalar(t *testing.T) {
	const delta = 1e-5
	acct := testAcct()
	l := mustOpen(t, Options{Delta: delta})
	half := trainCharge(acct, 20, delta)
	l.Commit("r1", "t", fpA, half)
	l.Commit("r2", "t", fpA, half)
	got := l.Balance("t", fpA).Committed
	want := acct.Epsilon(40, delta)
	if rel := math.Abs(got-want) / want; rel > 1e-12 {
		t.Fatalf("RDP-composed spend %v, one full run %v (rel %v)", got, want, rel)
	}
	if naive := 2 * half.Epsilon; got >= naive {
		t.Fatalf("RDP composition %v not tighter than naive sum %v", got, naive)
	}
}

func TestScalarCommitAndForfeit(t *testing.T) {
	l := mustOpen(t, Options{Budget: 10})
	// A failed run commits only its observed scalar spend.
	if err := l.Reserve("fail", "t", fpA, 3); err != nil {
		t.Fatal(err)
	}
	l.Commit("fail", "t", fpA, Charge{Epsilon: 0.5})
	if b := l.Balance("t", fpA); b.Committed != 0.5 || b.Reserved != 0 {
		t.Fatalf("after scalar commit: %+v", b)
	}
	// An interrupted run with unknowable spend forfeits everything it
	// reserved.
	if err := l.Reserve("lost", "t", fpA, 2); err != nil {
		t.Fatal(err)
	}
	l.Forfeit("lost")
	if b := l.Balance("t", fpA); b.Committed != 2.5 || b.Reserved != 0 {
		t.Fatalf("after forfeit: %+v", b)
	}
	// Terminal refs stay terminal: double commit/refund/forfeit are no-ops.
	l.Commit("fail", "t", fpA, Charge{Epsilon: 9})
	l.Refund("lost")
	l.Forfeit("fail")
	if b := l.Balance("t", fpA); b.Committed != 2.5 {
		t.Fatalf("terminal refs moved the balance: %+v", b)
	}
}

// TestReplayBitForBit: a restarted ledger replays ledger.jsonl to the
// exact committed and reserved balances, bit for bit.
func TestReplayBitForBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	opts := Options{Budget: 20, Path: path}
	l1 := mustOpen(t, opts)
	acct := testAcct()
	if err := l1.Reserve("j1", "a", fpA, 3); err != nil {
		t.Fatal(err)
	}
	l1.Commit("j1", "a", fpA, trainCharge(acct, 10, 1e-5))
	if err := l1.Reserve("j2", "a", fpA, 2); err != nil {
		t.Fatal(err)
	}
	if err := l1.Reserve("j3", "b", fpA, 1.5); err != nil {
		t.Fatal(err)
	}
	l1.Refund("j3")
	l1.Commit("j4", "a", fpA, Charge{Epsilon: 0.25}) // commit without reserve
	want := l1.Balance("a", fpA)

	l2 := mustOpen(t, opts)
	got := l2.Balance("a", fpA)
	if math.Float64bits(got.Committed) != math.Float64bits(want.Committed) {
		t.Fatalf("replayed committed %v != original %v", got.Committed, want.Committed)
	}
	if math.Float64bits(got.Reserved) != math.Float64bits(want.Reserved) {
		t.Fatalf("replayed reserved %v != original %v", got.Reserved, want.Reserved)
	}
	// The outstanding reservation survived the restart under its ref:
	// re-reserving the ref must fail, and refunding it releases all of
	// the replayed reservation.
	if err := l2.Reserve("j2", "a", fpA, 2); err == nil {
		t.Fatal("replayed ledger accepted duplicate ref")
	}
	l2.Refund("j2")
	if r := l2.Balance("a", fpA).Reserved; r != 0 {
		t.Fatalf("reservation j2 lost in replay: %v still reserved after refunding it", r)
	}
	if b := l2.Balance("b", fpA); b.Committed != 0 || b.Reserved != 0 {
		t.Fatalf("refunded tenant b balance: %+v", b)
	}
}

func TestReplaySkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l1 := mustOpen(t, Options{Budget: 10, Path: path})
	if err := l1.Reserve("j1", "t", fpA, 1); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"ref\":\"torn\n\x00garbage\n{\"state\":\"committed\"}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l1.Commit("j1", "t", fpA, Charge{Epsilon: 0.75})

	l2 := mustOpen(t, Options{Budget: 10, Path: path})
	if b := l2.Balance("t", fpA); b.Committed != 0.75 || b.Reserved != 0 {
		t.Fatalf("balance after corrupt-line replay: %+v", b)
	}
}

func TestLedgerEvents(t *testing.T) {
	var ops []obs.LedgerOp
	l := mustOpen(t, Options{Budget: 2, Observer: obs.ObserverFunc(func(e obs.Event) {
		if op, ok := e.(obs.LedgerOp); ok {
			ops = append(ops, op)
		}
	})})
	if err := l.Reserve("j1", "t", fpA, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("j2", "t", fpA, 1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want deny, got %v", err)
	}
	l.Commit("j1", "t", fpA, Charge{Epsilon: 1.25})
	kinds := make([]string, len(ops))
	for i, op := range ops {
		kinds[i] = op.Op
	}
	want := []string{"reserve", "deny", "commit"}
	if len(kinds) != len(want) {
		t.Fatalf("ops %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("ops %v, want %v", kinds, want)
		}
	}
	if last := ops[len(ops)-1]; last.Committed != 1.25 || last.Reserved != 0 {
		t.Fatalf("commit event totals: %+v", last)
	}
	// The registry aggregates the same events into per-tenant gauges.
	reg := obs.NewRegistry()
	reg.Emit(ops[len(ops)-1])
	snap := reg.Snapshot()
	if v, ok := snap[obs.Labeled("ledger.epsilon_committed", "tenant", "t")]; !ok || v.(float64) != 1.25 {
		t.Fatalf("per-tenant committed gauge missing or wrong: %v", snap)
	}
}

func TestUnenforcedLedgerTracksButNeverDenies(t *testing.T) {
	l := mustOpen(t, Options{})
	for i := 0; i < 5; i++ {
		l.Commit("", "t", fpA, Charge{Epsilon: 100})
	}
	b := l.Balance("t", fpA)
	if b.Enforced || b.Budget != 0 || b.Remaining != 0 {
		t.Fatalf("unenforced balance: %+v", b)
	}
	if b.Committed != 500 {
		t.Fatalf("committed %v, want 500", b.Committed)
	}
	if err := l.Reserve("r", "t", fpA, 1e9); err != nil {
		t.Fatalf("unenforced reserve denied: %v", err)
	}
}

func TestOpenRejectsBadDelta(t *testing.T) {
	for _, d := range []float64{-1, 1, 2} {
		if _, err := Open(Options{Delta: d}); err == nil {
			t.Fatalf("delta %v accepted", d)
		}
	}
}

// TestPublishPositions: a replayed ledger re-emits per-tenant positions
// so observers (the per-tenant gauges, burn-rate history) start from the
// persisted balance instead of zero.
func TestPublishPositions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l1 := mustOpen(t, Options{Budget: 10, Path: path})
	l1.Commit("j1", "a", fpA, Charge{Epsilon: 2})
	l1.Commit("j2", "b", fpA, Charge{Epsilon: 0.5})

	var ops []obs.LedgerOp
	l2 := mustOpen(t, Options{Budget: 10, Path: path, Observer: obs.ObserverFunc(func(e obs.Event) {
		if op, ok := e.(obs.LedgerOp); ok {
			ops = append(ops, op)
		}
	})})
	if len(ops) != 0 {
		t.Fatalf("replay itself emitted %d events, want 0", len(ops))
	}
	l2.PublishPositions()
	if len(ops) != 2 {
		t.Fatalf("PublishPositions emitted %d events, want one per tenant: %+v", len(ops), ops)
	}
	// Sorted tenant order, committed totals from the replayed state.
	if ops[0].Tenant != "a" || ops[0].Op != "sync" || ops[0].Committed != 2 {
		t.Fatalf("ops[0] = %+v", ops[0])
	}
	if ops[1].Tenant != "b" || ops[1].Committed != 0.5 {
		t.Fatalf("ops[1] = %+v", ops[1])
	}

	// No observer: a safe no-op.
	l1.PublishPositions()
}

// TestAppendFailureKeepsEnforcingFromMemory: a ledger whose file cannot
// be written (its directory is missing) logs each failed append and keeps
// enforcing the budget from memory.
func TestAppendFailureKeepsEnforcingFromMemory(t *testing.T) {
	var logged int
	l := mustOpen(t, Options{
		Budget: 2,
		Path:   filepath.Join(t.TempDir(), "missing", "ledger.jsonl"),
		Logf:   func(string, ...any) { logged++ },
	})
	if err := l.Reserve("j1", "t", fpA, 1.5); err != nil {
		t.Fatal(err)
	}
	if logged == 0 {
		t.Fatal("failed append was not logged")
	}
	if err := l.Reserve("j2", "t", fpA, 1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("second reservation = %v, want the budget enforced from memory", err)
	}
	l.Commit("j1", "t", fpA, Charge{Epsilon: 0.5})
	if b := l.Balance("t", fpA); b.Committed != 0.5 || b.Reserved != 0 || b.Remaining != 1.5 {
		t.Fatalf("balance after commit: %+v", b)
	}
}
