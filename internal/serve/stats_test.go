package serve

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"

	"privim/internal/obs/history"
)

// slowTrainBody requests ε = 1 per job, so two sequential jobs burn 2 of
// the configured budget and give the burn-rate window a baseline plus a
// delta.
const burnTrainBody = `{"graph":"g","epsilon":1,"iterations":6,"subgraph_size":8,"hidden_dim":4,"layers":2,"batch_size":4,"seed":3}`

// TestEpsilonBurnRateAlertEndToEnd is the ISSUE-10 acceptance test: a
// tight per-tenant ε burn-rate rule fires under budgeted training jobs,
// GET /v1/stats returns a non-empty windowed series for the tenant's
// ledger.epsilon_committed gauge, and the fired alert references an
// on-disk pprof profile that `go tool pprof -raw` parses.
func TestEpsilonBurnRateAlertEndToEnd(t *testing.T) {
	profiles, err := history.NewProfileRing(history.ProfileOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := budgetTestServer(t, Options{
		Budget:       5,
		TrainWorkers: 1,
		JournalDir:   t.TempDir(),
		HistoryEvery: 5 * time.Millisecond,
		// Deep rings so the baseline sample survives the polling phases
		// below (the default 360 points is only 1.8s at this tick).
		HistoryCapacity: 16384,
		Profiles:        profiles,
		// The built-in tenant-epsilon-burn rule uses a 5m window and 1h
		// horizon: any commit observed inside the window dwarfs the
		// sustainable rate 5ε/1h, so it fires as soon as a delta exists.
	})

	// Two sequential ε=1 jobs: the first seeds the tenant's gauge series,
	// the second produces the in-window delta the burn rate needs.
	// Between them, wait until the sampler has actually banked a baseline
	// point — while training saturates the CPU the 5ms sampler goroutine
	// can starve, and without a baseline in the ring the second commit
	// reads as a flat series with zero delta.
	runJob := func(i int) {
		var job JobStatus
		if code := doTenant(t, ts, http.MethodPost, "/v1/train", "burn", burnTrainBody, &job); code != 202 {
			t.Fatalf("train submit %d = %d", i, code)
		}
		if st := waitJobDone(t, ts, "burn", job.ID); st.State != JobDone {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
	}
	runJob(0)
	baselineDeadline := time.Now().Add(10 * time.Second)
	for {
		var stats struct {
			Series []history.Series `json:"series"`
		}
		if code := doTenant(t, ts, http.MethodGet,
			"/v1/stats?metric=ledger.epsilon_committed", "", "", &stats); code != 200 {
			t.Fatalf("GET /v1/stats = %d", code)
		}
		banked := false
		for _, se := range stats.Series {
			if strings.Contains(se.Metric, `tenant="burn"`) && len(se.Points) > 0 {
				banked = true
			}
		}
		if banked {
			break
		}
		if time.Now().After(baselineDeadline) {
			t.Fatal("sampler never banked the first job's commit")
		}
		time.Sleep(10 * time.Millisecond)
	}
	runJob(1)

	// The burn-rate alert fires on a sampler tick shortly after the
	// second commit.
	var fired history.Alert
	deadline := time.Now().Add(10 * time.Second)
	for {
		var alerts struct {
			Active []history.Alert `json:"active"`
			Recent []history.Alert `json:"recent"`
		}
		if code := doTenant(t, ts, http.MethodGet, "/v1/alerts", "", "", &alerts); code != 200 {
			t.Fatalf("GET /v1/alerts = %d", code)
		}
		for _, a := range append(alerts.Active, alerts.Recent...) {
			if a.Rule == "tenant-epsilon-burn" {
				fired = a
			}
		}
		if fired.Rule != "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fired.Rule == "" {
		t.Fatal("tenant-epsilon-burn never fired")
	}
	if !strings.Contains(fired.Metric, `tenant="burn"`) {
		t.Fatalf("alert fired on %q, want the burn tenant's series", fired.Metric)
	}
	if fired.Value < fired.Threshold {
		t.Fatalf("alert value %v below threshold %v", fired.Value, fired.Threshold)
	}

	// /v1/stats serves a non-empty windowed series for the tenant gauge.
	var stats struct {
		Series []history.Series `json:"series"`
	}
	if code := doTenant(t, ts, http.MethodGet,
		"/v1/stats?metric=ledger.epsilon_committed&window=1h", "", "", &stats); code != 200 {
		t.Fatalf("GET /v1/stats = %d", code)
	}
	var found bool
	for _, se := range stats.Series {
		if !strings.Contains(se.Metric, `tenant="burn"`) {
			continue
		}
		found = true
		if len(se.Points) == 0 {
			t.Fatalf("series %q empty", se.Metric)
		}
		// Two commits composed at the RDP level: the total is sublinear in
		// the per-job ε, but strictly above the first job's spend alone.
		if last := se.Points[len(se.Points)-1]; last.V <= se.Min || last.V <= 0 {
			t.Fatalf("committed series ends at %v (min %v), want growth across the two commits", last.V, se.Min)
		}
	}
	if !found {
		t.Fatalf("no ledger.epsilon_committed series for the burn tenant: %+v", stats.Series)
	}

	// The alert references an on-disk pprof artifact that parses. The
	// capture is asynchronous: poll `go tool pprof -raw` until it does.
	if fired.Profile == "" {
		t.Fatal("fired alert carries no profile path")
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		if fi, err := os.Stat(fired.Profile); err == nil && fi.Size() > 0 {
			out, err := exec.Command("go", "tool", "pprof", "-raw", fired.Profile).CombinedOutput()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("pprof -raw %s: %v\n%s", fired.Profile, err, out)
			}
		} else if time.Now().After(deadline) {
			t.Fatalf("profile %s never appeared: %v", fired.Profile, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestStatsEndpointServesRequestMetrics checks the serving-path series
// (route-labeled latency histograms expand into p99 series) and the
// discovery listing.
func TestStatsEndpointServesRequestMetrics(t *testing.T) {
	_, ts := budgetTestServer(t, Options{HistoryEvery: 5 * time.Millisecond})
	// Generate some traffic, then wait for a tick to sample it.
	for i := 0; i < 3; i++ {
		if code := doTenant(t, ts, http.MethodGet, "/v1/models", "", "", nil); code != 200 {
			t.Fatalf("GET /v1/models = %d", code)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var listing struct {
			Metrics []string `json:"metrics"`
		}
		if code := doTenant(t, ts, http.MethodGet, "/v1/stats", "", "", &listing); code != 200 {
			t.Fatalf("GET /v1/stats = %d", code)
		}
		var hasRoute, hasRuntime bool
		for _, m := range listing.Metrics {
			if strings.HasPrefix(m, "serve.http.latency_us{") && strings.HasSuffix(m, ".p99") {
				hasRoute = true
			}
			if m == "go.heap_bytes" {
				hasRuntime = true
			}
		}
		if hasRoute && hasRuntime {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats listing never gained route p99 + runtime series: %v", listing.Metrics)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrivateTrainingStatsOffMetricEndpoints: a private job's loss,
// gradient norm and clip fraction, and its extraction's subgraph and walk
// counts, walk lengths and occurrences, are unnoised statistics of the
// private data that no ledger charges, so /metrics, /metrics/prom and
// /v1/stats carry none of them; the job's progress and spend still show.
func TestPrivateTrainingStatsOffMetricEndpoints(t *testing.T) {
	_, ts := budgetTestServer(t, Options{Budget: 5, TrainWorkers: 1, HistoryEvery: 5 * time.Millisecond, Logf: discard})
	var job JobStatus
	if code := doTenant(t, ts, http.MethodPost, "/v1/train", "", fastTrainBody, &job); code != 202 {
		t.Fatalf("train submit = %d", code)
	}
	if st := waitJobDone(t, ts, "", job.ID); st.State != JobDone || !st.Private {
		t.Fatalf("job = %+v, want a done private job", st)
	}
	var stats struct {
		Metrics []string `json:"metrics"`
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if code := doTenant(t, ts, http.MethodGet, "/v1/stats", "", "", &stats); code != 200 {
			t.Fatalf("/v1/stats = %d", code)
		}
		if slices.Contains(stats.Metrics, "train.epsilon_spent") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never sampled the job's ε: %v", stats.Metrics)
		}
	}
	var snap map[string]any
	if code := doTenant(t, ts, http.MethodGet, "/metrics", "", "", &snap); code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, name := range []string{"train.iterations", "sampling.extractions"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("/metrics lost %s", name)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"train.loss", "train.grad_norm", "train.clip_fraction",
		"sampling.subgraphs", "sampling.walks", "sampling.max_occurrence",
		"sampling.walk_len", "sampling.occurrences",
	} {
		if _, ok := snap[name]; ok {
			t.Errorf("/metrics publishes %s", name)
		}
		for _, key := range stats.Metrics {
			if key == name || strings.HasPrefix(key, name+".") {
				t.Errorf("/v1/stats publishes %s", key)
			}
		}
		if family := "# TYPE " + strings.ReplaceAll(name, ".", "_") + " "; strings.Contains(string(prom), family) {
			t.Errorf("/metrics/prom publishes the %s family", name)
		}
	}
}
