package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"privim/internal/graph"
	"privim/internal/nn"
	"privim/internal/obs"
	core "privim/internal/privim"
)

// persistTestGraph mirrors the serve_test.go fixture: two hub stars
// joined by a ring — enough structure to train on.
func persistTestGraph() *graph.Graph {
	b := graph.NewBuilder(60, true)
	for v := 1; v < 20; v++ {
		b.AddEdge(0, graph.NodeID(v), 0.8)
	}
	for v := 21; v < 40; v++ {
		b.AddEdge(20, graph.NodeID(v), 0.8)
	}
	for v := 0; v < 60; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%60), 0.3)
	}
	return b.Build()
}

// newPersistManager returns a worker-less manager journaling into dir.
func newPersistManager(dir string) *jobManager {
	return newJobManager(jobManagerOptions{
		queueCap:        8,
		journalDir:      dir,
		checkpointEvery: 2,
		models:          newModelRegistry(),
		metrics:         obs.NewRegistry(),
		logf:            discard,
	})
}

// markRunning replays what a worker does before Train starts: flip the
// job to running and persist the transition — the on-disk state a daemon
// killed mid-train leaves behind.
func markRunning(m *jobManager, j *job) {
	m.mu.Lock()
	j.status.State = JobRunning
	j.status.Started = time.Now()
	m.persistLocked(j)
	m.mu.Unlock()
}

// writeEnvelopeCheckpoint drops a file that passes integrity
// verification into the job's checkpoint directory.
func writeEnvelopeCheckpoint(t *testing.T, m *jobManager, id string) {
	t.Helper()
	dir := m.checkpointDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := nn.WriteFileAtomic(filepath.Join(dir, "ckpt-00000002.ckpt"), func(w io.Writer) error {
		_, err := w.Write([]byte("placeholder checkpoint payload"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestJobTableReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	g := persistTestGraph()

	m1 := newPersistManager(dir)
	running, err := m1.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := m1.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m1.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	j := m1.dequeue()
	if j == nil || j.status.ID != running.ID {
		t.Fatalf("dequeue got %v, want %s", j, running.ID)
	}
	markRunning(m1, j)
	// m1 "crashes" here: no checkpoint was ever written for the running job.

	m2 := newPersistManager(dir)
	requeued, failed := m2.recover(func(string) *graph.Graph { return g })
	if requeued != 1 || failed != 1 {
		t.Fatalf("recover = (%d requeued, %d failed), want (1, 1)", requeued, failed)
	}
	st, err := m2.Get(running.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobFailed || st.Error == "" {
		t.Fatalf("checkpoint-less interrupted job = %+v, want failed with reason", st)
	}
	if st, _ := m2.Get(canceled.ID); st.State != JobCanceled {
		t.Fatalf("canceled job came back as %s", st.State)
	}
	if st, _ := m2.Get(queued.ID); st.State != JobQueued {
		t.Fatalf("queued job came back as %s", st.State)
	}
	// ID allocation continues after the highest recovered ID.
	next, err := m2.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-0004" {
		t.Fatalf("post-recovery ID = %s, want job-0004", next.ID)
	}
	// Recovery persisted its own transitions: a third incarnation agrees.
	m3 := newPersistManager(dir)
	if re, fa := m3.recover(func(string) *graph.Graph { return g }); re != 2 || fa != 0 {
		t.Fatalf("second recovery = (%d, %d), want (2, 0): orphan failure must be durable", re, fa)
	}
}

func TestRecoverRequeuesCheckpointedInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	g := persistTestGraph()

	m1 := newPersistManager(dir)
	st, err := m1.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	j := m1.dequeue()
	markRunning(m1, j)
	writeEnvelopeCheckpoint(t, m1, st.ID)

	m2 := newPersistManager(dir)
	requeued, failed := m2.recover(func(string) *graph.Graph { return g })
	if requeued != 1 || failed != 0 {
		t.Fatalf("recover = (%d, %d), want (1, 0)", requeued, failed)
	}
	got, _ := m2.Get(st.ID)
	if got.State != JobQueued {
		t.Fatalf("interrupted job with checkpoint = %s, want queued for resume", got.State)
	}

}

// TestRecoverTreatsCorruptOnlyCheckpointsAsOrphan: an interrupted job
// whose every checkpoint fails verification (torn write at crash time)
// cannot resume and must be marked failed, not requeued.
func TestRecoverTreatsCorruptOnlyCheckpointsAsOrphan(t *testing.T) {
	dir := t.TempDir()
	g := persistTestGraph()
	m1 := newPersistManager(dir)
	st, err := m1.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	j := m1.dequeue()
	markRunning(m1, j)
	writeEnvelopeCheckpoint(t, m1, st.ID)
	ckpt := filepath.Join(m1.checkpointDir(st.ID), "ckpt-00000002.ckpt")
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x01
	if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newPersistManager(dir)
	requeued, failed := m2.recover(func(string) *graph.Graph { return g })
	if requeued != 0 || failed != 1 {
		t.Fatalf("recover with corrupt checkpoint = (%d, %d), want (0, 1)", requeued, failed)
	}
	got, _ := m2.Get(st.ID)
	if got.State != JobFailed {
		t.Fatalf("job with corrupt-only checkpoints = %s, want failed", got.State)
	}
}

func TestJobTableSkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	g := persistTestGraph()

	m1 := newPersistManager(dir)
	a, _ := m1.Submit(TrainRequest{Graph: "g"}, g, "", "")
	// Torn and garbage lines interleave the valid tail records.
	f, err := os.OpenFile(m1.jobTablePath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"req\":{},\"status\":{\"id\":\"job-tor\n\x00\x7f not json at all\n{\"status\":{}}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	b, err := m1.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}

	m2 := newPersistManager(dir)
	requeued, failed := m2.recover(func(string) *graph.Graph { return g })
	if requeued != 2 || failed != 0 {
		t.Fatalf("recover = (%d, %d), want (2, 0)", requeued, failed)
	}
	for _, id := range []string{a.ID, b.ID} {
		if st, err := m2.Get(id); err != nil || st.State != JobQueued {
			t.Fatalf("job %s after corrupt-table recovery: %+v, %v", id, st, err)
		}
	}
}

// TestJobTableReplaysZeroTimeLines: tables written before zero start and
// finish times were omitted carry them as "0001-01-01T00:00:00Z"; those
// lines replay like the new ones, which leave the keys out.
func TestJobTableReplaysZeroTimeLines(t *testing.T) {
	dir := t.TempDir()
	g := persistTestGraph()
	old := `{"req":{"graph":"g"},"status":{"id":"job-0001","state":"done","graph":"g","created":"2026-01-02T03:04:05Z","started":"2026-01-02T03:04:06Z","finished":"2026-01-02T03:04:07Z"}}
{"req":{"graph":"g"},"status":{"id":"job-0002","state":"queued","graph":"g","created":"2026-01-02T03:04:08Z","started":"0001-01-01T00:00:00Z","finished":"0001-01-01T00:00:00Z"}}
`
	m1 := newPersistManager(dir)
	if err := os.WriteFile(m1.jobTablePath(), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if re, fa := m1.recover(func(string) *graph.Graph { return g }); re != 1 || fa != 0 {
		t.Fatalf("recover = (%d, %d), want (1, 0)", re, fa)
	}
	done, _ := m1.Get("job-0001")
	if want := time.Date(2026, 1, 2, 3, 4, 7, 0, time.UTC); done.State != JobDone || !done.Finished.Equal(want) {
		t.Fatalf("done job replayed as %+v", done)
	}
	if st, _ := m1.Get("job-0002"); st.State != JobQueued || !st.Started.IsZero() || !st.Finished.IsZero() {
		t.Fatalf("queued job replayed as %+v", st)
	}
	// Recovery re-persisted the queued job in the new form, which a
	// second restart replays the same way.
	table, err := os.ReadFile(m1.jobTablePath())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(table), []byte("\n"))
	if last := lines[len(lines)-1]; bytes.Contains(last, []byte(`"started"`)) || bytes.Contains(last, []byte(`"finished"`)) {
		t.Fatalf("re-persisted queued job keeps its zero times: %s", last)
	}
	m2 := newPersistManager(dir)
	if re, fa := m2.recover(func(string) *graph.Graph { return g }); re != 1 || fa != 0 {
		t.Fatalf("second recover = (%d, %d), want (1, 0)", re, fa)
	}
	if st, _ := m2.Get("job-0002"); st.State != JobQueued || !st.Started.IsZero() {
		t.Fatalf("queued job after second replay: %+v", st)
	}
}

// TestJobTableReplaysNumSubgraphsLines: tables written while JobStatus
// still carried num_subgraphs (m, a statistic of the private graph that
// no noise covered) replay with the rest of the status intact, and the
// status the daemon serves again leaves m out.
func TestJobTableReplaysNumSubgraphsLines(t *testing.T) {
	dir := t.TempDir()
	old := `{"req":{"graph":"g"},"status":{"id":"job-0001","state":"done","graph":"g","epsilon_spent":2.5,"private":true,"num_subgraphs":447,"created":"2026-01-02T03:04:05Z","finished":"2026-01-02T03:04:07Z"}}` + "\n"
	m := newPersistManager(dir)
	if err := os.WriteFile(m.jobTablePath(), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if re, fa := m.recover(func(string) *graph.Graph { return persistTestGraph() }); re != 0 || fa != 0 {
		t.Fatalf("recover = (%d, %d), want (0, 0)", re, fa)
	}
	st, err := m.Get("job-0001")
	if err != nil || st.State != JobDone || st.EpsilonSpent != 2.5 || !st.Private {
		t.Fatalf("replayed job = %+v, %v; want done, private, ε 2.5", st, err)
	}
	if body, err := json.Marshal(st); err != nil || bytes.Contains(body, []byte("num_subgraphs")) {
		t.Fatalf("served status %s, %v: want no num_subgraphs", body, err)
	}
}

func TestRecoverFailsJobsWithMissingGraph(t *testing.T) {
	dir := t.TempDir()
	g := persistTestGraph()
	m1 := newPersistManager(dir)
	st, err := m1.Submit(TrainRequest{Graph: "gone"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	m2 := newPersistManager(dir)
	requeued, failed := m2.recover(func(string) *graph.Graph { return nil })
	if requeued != 0 || failed != 1 {
		t.Fatalf("recover = (%d, %d), want (0, 1)", requeued, failed)
	}
	got, _ := m2.Get(st.ID)
	if got.State != JobFailed {
		t.Fatalf("job with missing graph = %s, want failed", got.State)
	}
}

// TestInterruptedJobResumesAndMatchesBaseline is the serve-layer
// end-to-end: a training job killed mid-run (checkpoints on disk, job
// table says running) is requeued by recovery, resumes from its last
// checkpoint, and finishes with exactly the privacy spend an
// uninterrupted run reports.
func TestInterruptedJobResumesAndMatchesBaseline(t *testing.T) {
	dir := t.TempDir()
	g := persistTestGraph()
	req := TrainRequest{
		Graph:        "g",
		Epsilon:      4,
		Iterations:   6,
		SubgraphSize: 8,
		HiddenDim:    4,
		Layers:       2,
		BatchSize:    4,
		Seed:         seedPtr(3),
	}
	// cfg mirrors jobManager.run's request mapping.
	cfg := core.Config{
		Epsilon:      req.Epsilon,
		Iterations:   req.Iterations,
		SubgraphSize: req.SubgraphSize,
		HiddenDim:    req.HiddenDim,
		Layers:       req.Layers,
		BatchSize:    req.BatchSize,
		Seed:         req.seed(),
		Workers:      1,
	}
	baseline, err := core.Train(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	m1 := newPersistManager(dir)
	st, err := m1.Submit(req, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	j := m1.dequeue()
	markRunning(m1, j)
	// The daemon dies mid-train: simulate by running the job's training
	// with its checkpoint directory until a crash after iteration 3.
	crashCfg := cfg
	crashCfg.CheckpointDir = m1.checkpointDir(st.ID)
	crashCfg.CheckpointEvery = m1.checkpointEvery
	crashCfg.Observer = obs.ObserverFunc(func(e obs.Event) {
		if ie, ok := e.(obs.IterationEnd); ok && ie.Iter == 3 {
			panic("simulated daemon crash")
		}
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("training survived the injected crash")
			}
		}()
		core.Train(context.Background(), g, crashCfg)
	}()

	m2 := newPersistManager(dir)
	requeued, failed := m2.recover(func(string) *graph.Graph { return g })
	if requeued != 1 || failed != 0 {
		t.Fatalf("recover = (%d, %d), want (1, 0)", requeued, failed)
	}
	resumed := m2.dequeue()
	if resumed == nil || resumed.status.ID != st.ID {
		t.Fatalf("dequeue got %v, want %s", resumed, st.ID)
	}
	m2.run(resumed)
	got, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobDone {
		t.Fatalf("resumed job = %+v, want done", got)
	}
	if math.Float64bits(got.EpsilonSpent) != math.Float64bits(baseline.EpsilonSpent) {
		t.Fatalf("resumed EpsilonSpent %v != baseline %v", got.EpsilonSpent, baseline.EpsilonSpent)
	}
	// Done jobs clean their checkpoints up.
	if _, err := os.Stat(m2.checkpointDir(st.ID)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint dir survived job completion: %v", err)
	}
}
