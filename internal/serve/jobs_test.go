package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"privim/internal/graph"
	"privim/internal/obs"
)

func discard(string, ...any) {}

// newIdleManager returns a manager with no workers, so submitted jobs
// stay queued deterministically.
func newIdleManager(queueCap int) *jobManager {
	return newJobManager(jobManagerOptions{
		queueCap: queueCap,
		models:   newModelRegistry(),
		metrics:  obs.NewRegistry(),
		logf:     discard,
	})
}

func TestJobQueueBoundsAndCancel(t *testing.T) {
	m := newIdleManager(1)
	g := graph.NewBuilder(4, true).Build()

	st, err := m.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobQueued {
		t.Fatalf("state = %s, want queued", st.State)
	}

	if _, err := m.Submit(TrainRequest{Graph: "g"}, g, "", ""); !errors.Is(err, errQueueFull) {
		t.Fatalf("overfull submit err = %v, want errQueueFull", err)
	}

	canceled, err := m.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != JobCanceled {
		t.Fatalf("state after cancel = %s", canceled.State)
	}
	if _, err := m.Cancel(st.ID); err == nil {
		t.Fatal("double cancel succeeded")
	}
	if _, err := m.Cancel("job-9999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func TestJobManagerDrainRejectsNewWork(t *testing.T) {
	m := newIdleManager(4)
	g := graph.NewBuilder(4, true).Build()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := m.Submit(TrainRequest{Graph: "g"}, g, "", ""); !errors.Is(err, errDraining) {
		t.Fatalf("post-drain submit err = %v, want errDraining", err)
	}
	// Shutdown is idempotent.
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestCanceledJobIsSkippedByWorker(t *testing.T) {
	// Cancel racing a worker: the job is dequeued (as a worker would)
	// before the cancel lands, so it is no longer in the pending queue —
	// the run-time state guard must still refuse to execute it.
	m := newIdleManager(1)
	g := graph.NewBuilder(4, true).Build()
	st, err := m.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	j := m.dequeue()
	if j == nil || j.status.ID != st.ID {
		t.Fatalf("dequeue returned %v, want job %s", j, st.ID)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	m.run(j)
	got, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != JobCanceled {
		t.Fatalf("canceled job ran: state = %s", got.State)
	}
}

// TestCancelReleasesQueueSlot is the regression test for canceled queued
// jobs pinning queue capacity: fill the queue, cancel everything, and
// the queue must accept a full complement of new jobs again.
func TestCancelReleasesQueueSlot(t *testing.T) {
	const capacity = 3
	m := newIdleManager(capacity)
	g := graph.NewBuilder(4, true).Build()

	ids := make([]string, 0, capacity)
	for i := 0; i < capacity; i++ {
		st, err := m.Submit(TrainRequest{Graph: "g"}, g, "", "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if _, err := m.Submit(TrainRequest{Graph: "g"}, g, "", ""); !errors.Is(err, errQueueFull) {
		t.Fatalf("overfull submit err = %v, want errQueueFull", err)
	}
	for _, id := range ids {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	// Every canceled slot is free again.
	for i := 0; i < capacity; i++ {
		if _, err := m.Submit(TrainRequest{Graph: "g"}, g, "", ""); err != nil {
			t.Fatalf("submit %d after cancels: %v", i, err)
		}
	}
	if _, err := m.Submit(TrainRequest{Graph: "g"}, g, "", ""); !errors.Is(err, errQueueFull) {
		t.Fatalf("refilled queue should be full again, got %v", err)
	}
}

// TestRejectedSubmitDoesNotConsumeID is the regression test for Submit
// burning a job ID on queue-full rejection: the ID sequence must stay
// dense across rejections, and rejections must be counted.
func TestRejectedSubmitDoesNotConsumeID(t *testing.T) {
	metrics := obs.NewRegistry()
	m := newJobManager(jobManagerOptions{
		queueCap: 1,
		models:   newModelRegistry(),
		metrics:  metrics,
		logf:     discard,
	})
	g := graph.NewBuilder(4, true).Build()

	first, err := m.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "job-0001" {
		t.Fatalf("first ID = %s", first.ID)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Submit(TrainRequest{Graph: "g"}, g, "", ""); !errors.Is(err, errQueueFull) {
			t.Fatalf("submit into full queue: %v", err)
		}
	}
	if _, err := m.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := m.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != "job-0002" {
		t.Fatalf("ID after 5 rejections = %s, want job-0002 (rejections must not consume IDs)", second.ID)
	}
	if v := metrics.Counter("serve.jobs.rejected").Value(); v != 5 {
		t.Fatalf("serve.jobs.rejected = %d, want 5", v)
	}
}

// TestQueuedGaugeTracksQueue: the queued gauge rises on submit and falls
// on cancel and dequeue — level semantics a Counter cannot provide.
func TestQueuedGaugeTracksQueue(t *testing.T) {
	metrics := obs.NewRegistry()
	m := newJobManager(jobManagerOptions{
		queueCap: 4,
		models:   newModelRegistry(),
		metrics:  metrics,
		logf:     discard,
	})
	g := graph.NewBuilder(4, true).Build()
	queued := metrics.Gauge("serve.jobs.queued")

	a, _ := m.Submit(TrainRequest{Graph: "g"}, g, "", "")
	b, _ := m.Submit(TrainRequest{Graph: "g"}, g, "", "")
	if v := queued.Value(); v != 2 {
		t.Fatalf("queued gauge = %v, want 2", v)
	}
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	if v := queued.Value(); v != 1 {
		t.Fatalf("queued gauge after cancel = %v, want 1", v)
	}
	if j := m.dequeue(); j == nil || j.status.ID != b.ID {
		t.Fatalf("dequeue got %v, want %s", j, b.ID)
	}
	if v := queued.Value(); v != 0 {
		t.Fatalf("queued gauge after dequeue = %v, want 0", v)
	}
}

// TestJobTimesOmittedUntilSet: a queued job's 202 body carries no started
// or finished key (encoding/json's omitempty never omits a time.Time, so
// both used to read "0001-01-01T00:00:00Z"), and a done job's status
// carries both.
func TestJobTimesOmittedUntilSet(t *testing.T) {
	_, ts := budgetTestServer(t, Options{TrainWorkers: 1, Logf: discard})
	var queued map[string]json.RawMessage
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "", fastTrainBody, &queued); code != 202 {
		t.Fatalf("train submit = %d", code)
	}
	for _, key := range []string{"started", "finished"} {
		if v, ok := queued[key]; ok {
			t.Errorf("queued job's 202 body carries %s: %s", key, v)
		}
	}
	var id string
	if err := json.Unmarshal(queued["id"], &id); err != nil {
		t.Fatal(err)
	}
	if st := waitJobDone(t, ts, "", id); st.State != JobDone {
		t.Fatalf("job = %+v, want done", st)
	}
	var done map[string]json.RawMessage
	if code := doTenant(t, ts, http.MethodGet, "/v1/jobs/"+id, "", "", &done); code != 200 {
		t.Fatalf("job poll = %d", code)
	}
	for _, key := range []string{"created", "started", "finished"} {
		var at time.Time
		if err := json.Unmarshal(done[key], &at); err != nil || at.IsZero() {
			t.Errorf("done job's %s = %s (%v), want a set time", key, done[key], err)
		}
	}
}
