package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"testing"

	"privim/internal/graph"
	"privim/internal/obs"
	core "privim/internal/privim"
)

func seedPtr(s int64) *int64 { return &s }

// privateJobScores submits one private job per seed field ("" leaves the
// seed out), waits for each, and returns each trained model's scores on
// the stored graph.
func privateJobScores(t *testing.T, seedFields ...string) [][]float64 {
	t.Helper()
	_, ts := budgetTestServer(t, Options{TrainWorkers: 1, Logf: discard})
	var out [][]float64
	for i, field := range seedFields {
		body := fmt.Sprintf(`{"graph":"g","model_name":"m%d","epsilon":4,"iterations":6,"subgraph_size":8,"hidden_dim":4,"layers":2,"batch_size":4%s}`, i, field)
		var st JobStatus
		if code := doTenant(t, ts, http.MethodPost, "/v1/train", "", body, &st); code != http.StatusAccepted {
			t.Fatalf("train %s = %d", body, code)
		}
		if st = waitJobDone(t, ts, "", st.ID); st.State != JobDone {
			t.Fatalf("job %s: %+v", st.ID, st)
		}
		var resp queryResponse
		if code := doTenant(t, ts, http.MethodPost, "/v1/score", "", fmt.Sprintf(`{"model":"m%d","graph":"g"}`, i), &resp); code != http.StatusOK {
			t.Fatalf("score m%d = %d", i, code)
		}
		out = append(out, resp.Scores)
	}
	return out
}

// TestSeedlessPrivateJobsDiffer: a private job sent without a seed runs
// under a secret one, so two such jobs on one graph release different
// models.
func TestSeedlessPrivateJobsDiffer(t *testing.T) {
	scores := privateJobScores(t, "", "")
	if reflect.DeepEqual(scores[0], scores[1]) {
		t.Fatalf("two seedless private jobs scored the graph alike: %v", scores[0])
	}
}

// TestZeroSeedJobsAgree: an explicit seed, 0 included, still makes a
// private run reproducible.
func TestZeroSeedJobsAgree(t *testing.T) {
	scores := privateJobScores(t, `,"seed":0`, `,"seed":0`)
	if !reflect.DeepEqual(scores[0], scores[1]) {
		t.Fatalf("two seed-0 private jobs scored the graph differently:\n%v\n%v", scores[0], scores[1])
	}
}

// TestSeedlessJobResumesBitForBit: the secret seed drawn at admission is
// kept in the job table, so a seedless private job killed mid-run
// resumes to exactly the model and spend of an uninterrupted run under
// that seed.
func TestSeedlessJobResumesBitForBit(t *testing.T) {
	dir := t.TempDir()
	g := persistTestGraph()
	req := privateReq()
	req.Seed = nil
	m1 := newPersistManager(dir)
	st, err := m1.Submit(req, g, "", "")
	if err != nil {
		t.Fatal(err)
	}
	j := m1.dequeue()
	if j.req.Seed == nil {
		t.Fatal("admission drew no seed for a seedless private job")
	}
	markRunning(m1, j)
	cfg := j.req.config()
	cfg.Workers = 1
	baseline, err := core.Train(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The daemon dies after iteration 3, past a checkpoint.
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
	if requeued, failed := m2.recover(func(string) *graph.Graph { return g }); requeued != 1 || failed != 0 {
		t.Fatalf("recover = (%d, %d), want (1, 0)", requeued, failed)
	}
	resumed := m2.dequeue()
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
	me, err := m2.models.Resolve(got.Model)
	if err != nil {
		t.Fatal(err)
	}
	resumedRun := &core.Result{Model: me.model}
	if want, have := baseline.Scores(g), resumedRun.Scores(g); !reflect.DeepEqual(have, want) {
		t.Fatalf("resumed model scores %v, uninterrupted run %v", have, want)
	}
}
