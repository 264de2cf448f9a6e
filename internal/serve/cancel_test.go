package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privim/internal/graph"
	"privim/internal/ledger"
	"privim/internal/obs"
	core "privim/internal/privim"
)

// longTrainBody is a private request with far more iterations than can
// finish during a test, so the job is reliably mid-run when canceled.
const longTrainBody = `{"graph":"g","epsilon":4,"iterations":20000,"subgraph_size":8,"hidden_dim":4,"layers":2,"batch_size":4,"seed":3}`

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelRunningJobE2E is the tentpole acceptance e2e: DELETE on a
// running job stops the computation within 2 seconds, leaves a
// resumable final checkpoint on disk, commits exactly the partial ε the
// completed iterations released, and refunds the unspent remainder —
// all observable through the public HTTP API.
func TestCancelRunningJobE2E(t *testing.T) {
	dir := t.TempDir()
	_, ts := budgetTestServer(t, Options{
		Budget: 5, TrainWorkers: 1, JournalDir: dir, CheckpointEvery: 1, Logf: discard,
	})

	var job JobStatus
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "tenant-a", longTrainBody, &job); code != 202 {
		t.Fatalf("train = %d, want 202", code)
	}

	// Wait until the job has at least one completed, checkpointed
	// iteration: the cancel then has real partial progress to settle.
	ckptDir := filepath.Join(dir, "checkpoints", job.ID)
	waitFor(t, 30*time.Second, "first training checkpoint", func() bool {
		return core.HasCheckpoint(ckptDir)
	})

	delAt := time.Now()
	var st JobStatus
	if code := doTenant(t, ts, http.MethodDelete, "/v1/jobs/"+job.ID, "tenant-a", "", &st); code != 200 {
		t.Fatalf("DELETE running job = %d, want 200", code)
	}
	if st.State != JobCanceling && st.State != JobCanceled {
		t.Fatalf("state after DELETE = %s, want canceling", st.State)
	}

	done := waitJobDone(t, ts, "tenant-a", job.ID)
	latency := time.Since(delAt)
	if done.State != JobCanceled {
		t.Fatalf("terminal state = %s (%s), want canceled", done.State, done.Error)
	}
	if latency > 2*time.Second {
		t.Fatalf("cancel-to-stop latency %v, want under 2s", latency)
	}
	if done.EpsilonSpent <= 0 || done.EpsilonSpent >= 4 {
		t.Fatalf("partial ε = %v, want in (0, 4): the iterations run so far, not the reservation", done.EpsilonSpent)
	}
	if !strings.Contains(done.Error, "canceled") {
		t.Fatalf("canceled job error = %q", done.Error)
	}

	// Ledger: the partial spend is committed, the remainder refunded.
	var pos struct {
		Budgets []ledger.Balance `json:"budgets"`
	}
	if code := doTenant(t, ts, http.MethodGet, "/v1/budget", "tenant-a", "", &pos); code != 200 {
		t.Fatalf("GET /v1/budget = %d", code)
	}
	if len(pos.Budgets) != 1 {
		t.Fatalf("budget position: %+v", pos)
	}
	b := pos.Budgets[0]
	if b.Reserved != 0 {
		t.Fatalf("reservation not settled after cancel: %+v", b)
	}
	if math.Abs(b.Committed-done.EpsilonSpent) > 1e-9 {
		t.Fatalf("committed %v != partial spend %v", b.Committed, done.EpsilonSpent)
	}

	// The final checkpoint survives the cancel, so the work is resumable.
	if !core.HasCheckpoint(ckptDir) {
		t.Fatal("canceled job left no resumable checkpoint")
	}
}

// TestCancelLedgerReplayConverges: the balance after canceling a
// running job must be durable — a fresh ledger replaying ledger.jsonl
// (the crash-after-cancel scenario) lands on the identical committed
// spend, bit for bit.
func TestCancelLedgerReplayConverges(t *testing.T) {
	g := persistTestGraph()
	dir := t.TempDir()
	l, err := ledger.Open(ledger.Options{Budget: 10, Path: filepath.Join(dir, "ledger.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	m := newJobManager(jobManagerOptions{
		workers:         1,
		queueCap:        8,
		journalDir:      dir,
		checkpointEvery: 1,
		models:          newModelRegistry(),
		metrics:         obs.NewRegistry(),
		logf:            discard,
		budget:          l,
	})
	req := privateReq()
	req.Iterations = 20000
	st, err := m.Submit(req, g, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "first training checkpoint", func() bool {
		return core.HasCheckpoint(m.checkpointDir(st.ID))
	})
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "job to settle", func() bool {
		got, _ := m.Get(st.ID)
		return got.State == JobCanceled
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	live := l.Balance("t", st.Fingerprint)
	if live.Committed <= 0 || live.Reserved != 0 {
		t.Fatalf("live balance after cancel: %+v", live)
	}
	replayed, err := ledger.Open(ledger.Options{Budget: 10, Path: filepath.Join(dir, "ledger.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	rb := replayed.Balance("t", st.Fingerprint)
	if math.Float64bits(rb.Committed) != math.Float64bits(live.Committed) || rb.Reserved != 0 {
		t.Fatalf("replayed balance diverges: %+v vs %+v", rb, live)
	}
}

// TestRecoverCancelingJobForfeits: a job persisted in the transient
// canceling state (daemon died between the cancel request and the
// trainer stopping) recovers as canceled with its full reservation
// forfeited — the partial spend was never committed, so the
// conservative resolution charges the whole reservation.
func TestRecoverCancelingJobForfeits(t *testing.T) {
	g := persistTestGraph()
	dir := t.TempDir()
	m1, _ := newBudgetManager(t, dir, 10)
	st, err := m1.Submit(privateReq(), g, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	m1.mu.Lock()
	j := m1.jobs[st.ID]
	j.status.State = JobCanceling
	m1.persistLocked(j)
	m1.mu.Unlock()

	// "Restart": fresh ledger and manager replay the same directory.
	l2, err := ledger.Open(ledger.Options{Budget: 10, Path: filepath.Join(dir, "ledger.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	m2 := newJobManager(jobManagerOptions{
		queueCap: 8, journalDir: dir, models: newModelRegistry(),
		metrics: obs.NewRegistry(), logf: discard, budget: l2,
	})
	m2.recover(func(string) *graph.Graph { return g })
	got, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCanceled {
		t.Fatalf("recovered state = %s, want canceled", got.State)
	}
	b := l2.Balance("t", st.Fingerprint)
	if b.Committed != 4 || b.Reserved != 0 {
		t.Fatalf("forfeit balance: %+v, want full ε=4 reservation committed", b)
	}
}

// TestDrainGracePreemptsRunningJobs: Shutdown with a drain grace
// preempts the running job (canceled, checkpointed) instead of waiting
// out its 20000 iterations, and leaves the queued job untouched for
// restart recovery.
func TestDrainGracePreemptsRunningJobs(t *testing.T) {
	g := persistTestGraph()
	dir := t.TempDir()
	m := newJobManager(jobManagerOptions{
		workers:         1,
		queueCap:        8,
		journalDir:      dir,
		checkpointEvery: 1,
		models:          newModelRegistry(),
		metrics:         obs.NewRegistry(),
		logf:            discard,
		drainGrace:      50 * time.Millisecond,
	})
	req := privateReq()
	req.Iterations = 20000
	running, err := m.Submit(req, g, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "first training checkpoint", func() bool {
		return core.HasCheckpoint(m.checkpointDir(running.ID))
	})
	queued, err := m.Submit(req, g, "t", "")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st, _ := m.Get(running.ID); st.State != JobCanceled {
		t.Fatalf("running job after drain = %s, want canceled", st.State)
	}
	if !core.HasCheckpoint(m.checkpointDir(running.ID)) {
		t.Fatal("preempted job left no resumable checkpoint")
	}
	if st, _ := m.Get(queued.ID); st.State != JobQueued {
		t.Fatalf("queued job after drain = %s, want queued (recovered on restart)", st.State)
	}
}

// TestQueryCanceledRequestNotCached: a query whose request context is
// already dead answers 503 and must not poison the result cache; the
// next identical query computes fresh.
func TestQueryCanceledRequestNotCached(t *testing.T) {
	dir := t.TempDir()
	s, ts := budgetTestServer(t, Options{TrainWorkers: 1, JournalDir: dir, Logf: discard})
	res, err := core.Train(context.Background(), persistTestGraph(), core.Config{
		Mode: core.ModeNonPrivate, HiddenDim: 4, Layers: 2, SubgraphSize: 8,
		Iterations: 2, BatchSize: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.models.Put("m", 0, res.Model); err != nil {
		t.Fatal(err)
	}
	_ = ts

	body := `{"model":"m","graph":"g"}`
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(body)).WithContext(dead)
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("canceled query = %d, want 503: %s", rr.Code, rr.Body)
	}

	req2 := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(body))
	rr2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr2, req2)
	if rr2.Code != http.StatusOK {
		t.Fatalf("follow-up query = %d, want 200: %s", rr2.Code, rr2.Body)
	}
	var resp struct {
		Cached bool      `json:"cached"`
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(rr2.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("canceled query left a cache entry behind")
	}
	if len(resp.Scores) == 0 {
		t.Fatal("follow-up query returned no scores")
	}
}
