package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privim/internal/dp"
	"privim/internal/graph"
	"privim/internal/ledger"
	"privim/internal/nn"
	"privim/internal/obs"
	core "privim/internal/privim"
)

// fastTrainBody is a private training request small enough to finish in
// milliseconds, with requested ε = 4.
const fastTrainBody = `{"graph":"g","epsilon":4,"iterations":6,"subgraph_size":8,"hidden_dim":4,"layers":2,"batch_size":4,"seed":3}`

// budgetTestServer builds a server with the given budget over one stored
// graph and mounts it on httptest.
func budgetTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, persistTestGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StoreGraph("g", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doTenant issues a request under the given tenant header and decodes the
// JSON response.
func doTenant(t *testing.T, ts *httptest.Server, method, path, tenant, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func waitJobDone(t *testing.T, ts *httptest.Server, tenant, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		if code := doTenant(t, ts, http.MethodGet, "/v1/jobs/"+id, tenant, "", &st); code != 200 {
			t.Fatalf("job poll = %d", code)
		}
		switch st.State {
		case JobDone, JobFailed, JobCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// budgetDenial is the machine-readable 403 body.
type budgetDenial struct {
	Error     string  `json:"error"`
	Tenant    string  `json:"tenant"`
	Graph     string  `json:"graph"`
	Requested float64 `json:"requested"`
	Budget    float64 `json:"budget"`
	Remaining float64 `json:"remaining"`
}

// TestBudgetExhaustionIsolatesTenants is the tentpole acceptance e2e:
// two tenants train against the same graph fingerprint; tenant A
// exhausts its budget and gets a machine-readable 403 while tenant B —
// a separate account over the very same graph — proceeds.
func TestBudgetExhaustionIsolatesTenants(t *testing.T) {
	_, ts := budgetTestServer(t, Options{Budget: 5, TrainWorkers: 1, Logf: discard})

	var first JobStatus
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "tenant-a", fastTrainBody, &first); code != 202 {
		t.Fatalf("tenant-a first train = %d, want 202", code)
	}
	if first.Tenant != "tenant-a" || first.Fingerprint == "" {
		t.Fatalf("job status carries no tenant/fingerprint: %+v", first)
	}

	// ε=4 of budget 5 is reserved (or already committed): a second ε=4
	// job cannot fit, whether or not the first has finished.
	var denial budgetDenial
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "tenant-a", fastTrainBody, &denial); code != 403 {
		t.Fatalf("tenant-a second train = %d, want 403", code)
	}
	if denial.Error != "budget_exhausted" || denial.Tenant != "tenant-a" || denial.Graph != first.Fingerprint {
		t.Fatalf("denial body: %+v", denial)
	}
	if denial.Requested != 4 || denial.Budget != 5 || denial.Remaining >= 4 {
		t.Fatalf("denial numbers: %+v", denial)
	}

	// Tenant B is an independent account against the same fingerprint.
	var second JobStatus
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "tenant-b", fastTrainBody, &second); code != 202 {
		t.Fatalf("tenant-b train = %d, want 202", code)
	}
	// The default tenant (no header) is its own account too.
	var third JobStatus
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "", fastTrainBody, &third); code != 202 {
		t.Fatalf("default-tenant train = %d, want 202", code)
	}
	if third.Tenant != DefaultTenant {
		t.Fatalf("headerless job tenant = %q, want %q", third.Tenant, DefaultTenant)
	}

	// After completion the reservation became a committed charge and the
	// budget endpoint reports it.
	done := waitJobDone(t, ts, "tenant-a", first.ID)
	if done.State != JobDone {
		t.Fatalf("tenant-a job = %+v, want done", done)
	}
	var pos struct {
		Tenant   string           `json:"tenant"`
		Enforced bool             `json:"enforced"`
		Budgets  []ledger.Balance `json:"budgets"`
	}
	if code := doTenant(t, ts, http.MethodGet, "/v1/budget", "tenant-a", "", &pos); code != 200 {
		t.Fatalf("GET /v1/budget = %d", code)
	}
	if !pos.Enforced || len(pos.Budgets) != 1 {
		t.Fatalf("budget position: %+v", pos)
	}
	b := pos.Budgets[0]
	if b.Graph != first.Fingerprint || b.Committed <= 0 || b.Committed > 4.001 || b.Reserved != 0 {
		t.Fatalf("tenant-a balance after completion: %+v", b)
	}
}

func TestTrainRejectsNegativeEpsilonAndBadTenant(t *testing.T) {
	_, ts := budgetTestServer(t, Options{Logf: discard})
	var errBody map[string]string
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "", `{"graph":"g","epsilon":-1}`, &errBody); code != 400 {
		t.Fatalf("negative epsilon = %d, want 400", code)
	}
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "no/slashes", fastTrainBody, &errBody); code != 400 {
		t.Fatalf("invalid tenant = %d, want 400", code)
	}
	// No budget configured: the endpoint says so rather than reporting
	// empty balances as if tracking were on.
	if code := doTenant(t, ts, http.MethodGet, "/v1/budget", "", "", &errBody); code != 404 {
		t.Fatalf("GET /v1/budget without ledger = %d, want 404", code)
	}
}

// trainCrashBodies name models no daemon can allocate: building the
// first dies with an out-of-memory fatal error that no recover catches,
// and the second would take about 600 GB layer by layer.
var trainCrashBodies = []string{
	`{"graph":"g","hidden_dim":1099511627776,"epsilon":1}`,
	`{"graph":"g","layers":67108864,"epsilon":1}`,
}

// TestTrainRejectsUnrunnableConfig: bodies the trainer cannot run, or
// whose model is larger than a model upload may be, get 400 before any ε
// is reserved, and the daemon keeps serving after them.
func TestTrainRejectsUnrunnableConfig(t *testing.T) {
	_, ts := budgetTestServer(t, Options{Budget: 5, TrainWorkers: 1, Logf: discard})
	for _, body := range append([]string{
		`{"graph":"g","iterations":-1,"epsilon":1}`,
		`{"graph":"g","epsilon":1,"delta":2}`,
		`{"graph":"g","epsilon":1,"delta":-1}`,
		`{"graph":"g","epsilon":1,"hidden_dim":-4}`,
		`{"graph":"g","epsilon":1,"layers":-2}`,
		`{"graph":"g","epsilon":1,"gnn":"transformer"}`,
	}, trainCrashBodies...) {
		var errBody map[string]string
		if code := doTenant(t, ts, http.MethodPost, "/v1/train", "tenant-a", body, &errBody); code != 400 {
			t.Fatalf("%s = %d, want 400", body, code)
		}
	}
	var pos struct {
		Budgets []ledger.Balance `json:"budgets"`
	}
	if code := doTenant(t, ts, http.MethodGet, "/v1/budget", "tenant-a", "", &pos); code != 200 || len(pos.Budgets) != 0 {
		t.Fatalf("budget after rejected bodies = %d %+v, want nothing reserved", code, pos.Budgets)
	}
	var st JobStatus
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "tenant-a", fastTrainBody, &st); code != 202 {
		t.Fatalf("valid train = %d, want 202", code)
	}
	if done := waitJobDone(t, ts, "tenant-a", st.ID); done.State != JobDone {
		t.Fatalf("valid job = %+v, want done", done)
	}
	if code := doTenant(t, ts, http.MethodGet, "/healthz", "", "", nil); code != 200 {
		t.Fatalf("/healthz = %d, want 200", code)
	}
}

// newBudgetManager returns a worker-less manager journaling into dir
// with a durable budget ledger beside the job table.
func newBudgetManager(t *testing.T, dir string, budget float64) (*jobManager, *ledger.Ledger) {
	t.Helper()
	l, err := ledger.Open(ledger.Options{
		Budget: budget,
		Path:   filepath.Join(dir, "ledger.jsonl"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return newJobManager(jobManagerOptions{
		queueCap:        8,
		journalDir:      dir,
		checkpointEvery: 2,
		models:          newModelRegistry(),
		metrics:         obs.NewRegistry(),
		logf:            discard,
		budget:          l,
	}), l
}

func privateReq() TrainRequest {
	return TrainRequest{
		Graph: "g", Epsilon: 4, Iterations: 6, SubgraphSize: 8,
		HiddenDim: 4, Layers: 2, BatchSize: 4, Seed: seedPtr(3),
	}
}

// TestCanceledJobRefundsReservation: acceptance — canceling a queued job
// leaves the committed balance unchanged and releases the reservation.
func TestCanceledJobRefundsReservation(t *testing.T) {
	g := persistTestGraph()
	m, l := newBudgetManager(t, t.TempDir(), 10)
	st, err := m.Submit(privateReq(), g, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	before := l.Balance("t", st.Fingerprint)
	if before.Reserved != 4 {
		t.Fatalf("reservation after submit: %+v", before)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	after := l.Balance("t", st.Fingerprint)
	if after.Committed != 0 || after.Reserved != 0 || after.Remaining != 10 {
		t.Fatalf("balance after cancel: %+v", after)
	}
	// The refund is durable: a replayed ledger agrees.
	replayed, err := ledger.Open(ledger.Options{Budget: 10, Path: filepath.Join(m.journalDir, "ledger.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if b := replayed.Balance("t", st.Fingerprint); b.Committed != 0 || b.Reserved != 0 {
		t.Fatalf("replayed balance after cancel: %+v", b)
	}
}

// TestBudgetSurvivesDaemonCrash: acceptance — a daemon killed mid-job
// restarts, replays ledger.jsonl and jobs.jsonl, resumes the job from
// its checkpoint, and lands on the same committed balance bit for bit as
// an uninterrupted run. A checkpoint left in the version-2 layout, which
// Train refuses, still passes recovery's integrity screen: the job
// reruns from iteration 0 under its recorded seed and commits the same
// balance once.
func TestBudgetSurvivesDaemonCrash(t *testing.T) {
	g := persistTestGraph()
	req := privateReq()

	// Uninterrupted baseline in its own directory.
	baseDir := t.TempDir()
	mb, lb := newBudgetManager(t, baseDir, 10)
	bst, err := mb.Submit(req, g, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	mb.run(mb.dequeue())
	if st, _ := mb.Get(bst.ID); st.State != JobDone {
		t.Fatalf("baseline job: %+v", st)
	}
	baseline := lb.Balance("t", bst.Fingerprint)

	for _, tc := range []struct {
		name string
		// rewrite, when set, changes the crash's checkpoints on disk
		// before the restart.
		rewrite func(t *testing.T, dir string)
		// resumed and iters are the restart's checkpoint_resumed and
		// iteration_end counts in its per-job journal.
		resumed, iters int
	}{
		{"resume", nil, 1, req.Iterations - 2},
		{"version-2 checkpoint", rewriteAsVersion2, 0, req.Iterations},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Crash run: the daemon dies after iteration 3, past a checkpoint.
			dir := t.TempDir()
			m1, l1 := newBudgetManager(t, dir, 10)
			st, err := m1.Submit(req, g, "t", "")
			if err != nil {
				t.Fatal(err)
			}
			j := m1.dequeue()
			markRunning(m1, j)
			// Mirrors jobManager.run's request mapping, including the ledger-δ
			// default for budget-charged jobs.
			crashCfg := core.Config{
				Epsilon: req.Epsilon, Delta: m1.budget.Delta(), Iterations: req.Iterations, SubgraphSize: req.SubgraphSize,
				HiddenDim: req.HiddenDim, Layers: req.Layers, BatchSize: req.BatchSize, Seed: req.seed(),
				Workers: 1, CheckpointDir: m1.checkpointDir(st.ID), CheckpointEvery: m1.checkpointEvery,
				Observer: obs.ObserverFunc(func(e obs.Event) {
					if ie, ok := e.(obs.IterationEnd); ok && ie.Iter == 3 {
						panic("simulated daemon crash")
					}
				}),
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("training survived the injected crash")
					}
				}()
				core.Train(context.Background(), g, crashCfg)
			}()
			preCrash := l1.Balance("t", st.Fingerprint)
			if preCrash.Reserved != 4 || preCrash.Committed != 0 {
				t.Fatalf("balance at crash time: %+v", preCrash)
			}
			if tc.rewrite != nil {
				tc.rewrite(t, m1.checkpointDir(st.ID))
			}

			// Restart: ledger replays first (the reservation survives), then job
			// recovery requeues the checkpointed job — it must not re-reserve.
			m2, l2 := newBudgetManager(t, dir, 10)
			if b := l2.Balance("t", st.Fingerprint); math.Float64bits(b.Reserved) != math.Float64bits(preCrash.Reserved) {
				t.Fatalf("replayed reservation %v != pre-crash %v", b.Reserved, preCrash.Reserved)
			}
			requeued, failed := m2.recover(func(string) *graph.Graph { return g })
			if requeued != 1 || failed != 0 {
				t.Fatalf("recover = (%d, %d), want (1, 0)", requeued, failed)
			}
			if b := l2.Balance("t", st.Fingerprint); b.Reserved != 4 {
				t.Fatalf("recovery disturbed the reservation: %+v", b)
			}
			m2.run(m2.dequeue())
			got, _ := m2.Get(st.ID)
			if got.State != JobDone {
				t.Fatalf("resumed job: %+v", got)
			}
			journal, err := os.ReadFile(filepath.Join(dir, st.ID+".jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(journal, []byte(`"event":"checkpoint_resumed"`)); n != tc.resumed {
				t.Fatalf("restart resumed %d times, want %d", n, tc.resumed)
			}
			if n := bytes.Count(journal, []byte(`"event":"iteration_end"`)); n != tc.iters {
				t.Fatalf("restart ran %d iterations, want %d", n, tc.iters)
			}
			after := l2.Balance("t", st.Fingerprint)
			if math.Float64bits(after.Committed) != math.Float64bits(baseline.Committed) {
				t.Fatalf("crash-resumed committed %v != uninterrupted %v", after.Committed, baseline.Committed)
			}
			if after.Reserved != 0 {
				t.Fatalf("reservation outlived the commit: %+v", after)
			}
			// Third incarnation: the committed balance replays bit for bit.
			l3, err := ledger.Open(ledger.Options{Budget: 10, Path: filepath.Join(dir, "ledger.jsonl")})
			if err != nil {
				t.Fatal(err)
			}
			if b := l3.Balance("t", st.Fingerprint); math.Float64bits(b.Committed) != math.Float64bits(after.Committed) {
				t.Fatalf("replayed committed %v != live %v", b.Committed, after.Committed)
			}
		})
	}
}

// rewriteAsVersion2 rewrites every checkpoint in dir in the version-2
// layout: version field 2 and an 8-byte training-stream draw count after
// the iteration, as checkpoints were written before the trainer keyed
// its streams by purpose and iteration.
func rewriteAsVersion2(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checkpoint to rewrite in %s (%v)", dir, err)
	}
	const iterEnd = 8 + 4 + 8 + 4 // magic, version, fingerprint, iteration
	for _, path := range paths {
		payload, err := nn.ReadFileVerified(path)
		if err != nil {
			t.Fatal(err)
		}
		old := append([]byte(nil), payload[:iterEnd]...)
		binary.LittleEndian.PutUint32(old[8:], 2)
		old = binary.LittleEndian.AppendUint64(old, 12345)
		old = append(old, payload[iterEnd:]...)
		if _, err := nn.WriteFileAtomic(path, func(w io.Writer) error {
			_, err := w.Write(old)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashWithoutCheckpointForfeitsReservation: an interrupted job that
// cannot resume has an unknowable true spend; recovery forfeits its full
// reservation rather than guessing.
func TestCrashWithoutCheckpointForfeitsReservation(t *testing.T) {
	g := persistTestGraph()
	dir := t.TempDir()
	m1, _ := newBudgetManager(t, dir, 10)
	st, err := m1.Submit(privateReq(), g, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	markRunning(m1, m1.dequeue())
	// Crash before any checkpoint: restart cannot resume the job.
	m2, l2 := newBudgetManager(t, dir, 10)
	requeued, failed := m2.recover(func(string) *graph.Graph { return g })
	if requeued != 0 || failed != 1 {
		t.Fatalf("recover = (%d, %d), want (0, 1)", requeued, failed)
	}
	b := l2.Balance("t", st.Fingerprint)
	if b.Committed != 4 || b.Reserved != 0 {
		t.Fatalf("forfeit balance: %+v", b)
	}
	// A canceled-before-restart queued job would have been refunded
	// instead; the queued-job path is covered by the recovery refund below.
	m3, _ := newBudgetManager(t, t.TempDir(), 10)
	qst, err := m3.Submit(privateReq(), g, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	m4, l4 := newBudgetManager(t, m3.journalDir, 10)
	if re, fa := m4.recover(func(string) *graph.Graph { return nil }); re != 0 || fa != 1 {
		t.Fatalf("recover = (%d, %d), want (0, 1)", re, fa)
	}
	if b := l4.Balance("t", qst.Fingerprint); b.Committed != 0 || b.Reserved != 0 {
		t.Fatalf("queued-job recovery should refund, got %+v", b)
	}
}

// TestFailedJobCommitsObservedSpend: a job that trains but fails
// afterward (model registration) surfaces the ε its iterations released
// on its status and commits exactly that to the ledger.
func TestFailedJobCommitsObservedSpend(t *testing.T) {
	g := persistTestGraph()
	m, l := newBudgetManager(t, t.TempDir(), 10)
	req := privateReq()
	req.ModelName = "bad name!" // fails validName at registration time
	st, err := m.Submit(req, g, "t", "")
	if err != nil {
		t.Fatal(err)
	}
	m.run(m.dequeue())
	got, _ := m.Get(st.ID)
	if got.State != JobFailed {
		t.Fatalf("job = %+v, want failed at model registration", got)
	}
	if got.EpsilonSpent <= 0 {
		t.Fatal("failed job reports no spend despite completing training")
	}
	b := l.Balance("t", st.Fingerprint)
	if math.Float64bits(b.Committed) != math.Float64bits(got.EpsilonSpent) {
		t.Fatalf("ledger committed %v != observed spend %v", b.Committed, got.EpsilonSpent)
	}
	if b.Reserved != 0 {
		t.Fatalf("failed job left a reservation: %+v", b)
	}
}

// TestFailedJobsComposeAtRDPLevel: two private jobs on one graph that both
// fail after training commit the Results they released, so the ledger
// composes them at the Rényi level like any other run: the committed ε is
// their RDP composition, strictly below the sum of their own ε.
func TestFailedJobsComposeAtRDPLevel(t *testing.T) {
	g := persistTestGraph()
	m, l := newBudgetManager(t, t.TempDir(), 10)
	req := privateReq()
	req.ModelName = "bad name!" // fails validName at registration time
	var sum float64
	var fp string
	for i := 0; i < 2; i++ {
		st, err := m.Submit(req, g, "t", "")
		if err != nil {
			t.Fatal(err)
		}
		m.run(m.dequeue())
		got, _ := m.Get(st.ID)
		if got.State != JobFailed || !got.Private || got.EpsilonSpent <= 0 {
			t.Fatalf("job %d = %+v, want a failed private job with its training summary", i, got)
		}
		sum += got.EpsilonSpent
		fp = got.Fingerprint
	}
	cfg := req.config()
	cfg.Delta = l.Delta()
	res, err := core.Train(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	curve := res.Charge().Acct.RDPCurve(req.Iterations)
	want := dp.EpsilonFromCurve(dp.AddCurve(dp.AddCurve(nil, curve), curve), l.Delta())
	b := l.Balance("t", fp)
	if math.Float64bits(b.Committed) != math.Float64bits(want) {
		t.Fatalf("committed %v, want the RDP composition %v of the two runs", b.Committed, want)
	}
	if !(b.Committed < sum) {
		t.Fatalf("committed %v is not below the sum %v of the two runs' ε", b.Committed, sum)
	}
	if b.Reserved != 0 {
		t.Fatalf("failed jobs left a reservation: %+v", b)
	}
}
