package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"privim/internal/graph"
	core "privim/internal/privim"
	"privim/internal/serve"
)

// testGraph builds a small deterministic influence graph: two hub stars
// joined by a ring, enough structure for training and scoring.
func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
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

func edgeListBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkpointBytes trains a tiny non-private model on g and returns its
// serialized checkpoint.
func checkpointBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	res, err := core.Train(context.Background(), g, core.Config{
		Mode:         core.ModeNonPrivate,
		SubgraphSize: 8,
		HiddenDim:    4,
		Layers:       2,
		Iterations:   2,
		BatchSize:    4,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, opts serve.Options) *serve.Server {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// doJSON issues a request and decodes the JSON response into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, client *http.Client, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func metricValue(t *testing.T, client *http.Client, base, name string) float64 {
	t.Helper()
	var snap map[string]any
	if code := doJSON(t, client, http.MethodGet, base+"/metrics", nil, &snap); code != 200 {
		t.Fatalf("GET /metrics = %d", code)
	}
	v, ok := snap[name]
	if !ok {
		return 0
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("metric %s has non-numeric value %v", name, v)
	}
	return f
}

type queryResponse struct {
	Model       string    `json:"model"`
	Graph       string    `json:"graph"`
	Fingerprint string    `json:"fingerprint"`
	K           int       `json:"k"`
	Seeds       []int     `json:"seeds"`
	Scores      []float64 `json:"scores"`
	Cached      bool      `json:"cached"`
}

// TestServeEndToEnd covers the core serving loop: upload a checkpoint
// and a graph, query seeds twice (second answer from the LRU with the
// hit counter incremented), score, and registry CRUD.
func TestServeEndToEnd(t *testing.T) {
	s := newTestServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	g := testGraph(t)
	ckpt := checkpointBytes(t, g)

	var minfo serve.ModelInfo
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/m1", ckpt, &minfo); code != 201 {
		t.Fatalf("model upload = %d", code)
	}
	if minfo.Ref() != "m1@1" {
		t.Fatalf("model ref = %s, want m1@1", minfo.Ref())
	}

	var ginfo serve.GraphInfo
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/graphs/g1", edgeListBytes(t, g), &ginfo); code != 201 {
		t.Fatalf("graph upload = %d", code)
	}
	if ginfo.Fingerprint != fmt.Sprintf("%016x", g.Fingerprint()) {
		t.Fatalf("fingerprint = %s, want %016x", ginfo.Fingerprint, g.Fingerprint())
	}
	if ginfo.Nodes != 60 {
		t.Fatalf("nodes = %d, want 60", ginfo.Nodes)
	}

	query := []byte(`{"model":"m1","graph":"g1","k":5}`)
	var first, second queryResponse
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/seeds", query, &first); code != 200 {
		t.Fatalf("seeds = %d", code)
	}
	if len(first.Seeds) != 5 || first.Cached {
		t.Fatalf("first seeds response: %+v", first)
	}
	if first.Model != "m1@1" || first.Fingerprint != ginfo.Fingerprint {
		t.Fatalf("first response resolution: %+v", first)
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/seeds", query, &second); code != 200 {
		t.Fatalf("repeat seeds = %d", code)
	}
	if !second.Cached {
		t.Fatal("repeat query was not served from cache")
	}
	if !reflect.DeepEqual(first.Seeds, second.Seeds) {
		t.Fatalf("cached seeds differ: %v vs %v", first.Seeds, second.Seeds)
	}
	if hits := metricValue(t, c, ts.URL, "serve.cache.hits"); hits != 1 {
		t.Fatalf("serve.cache.hits = %v, want 1", hits)
	}
	if misses := metricValue(t, c, ts.URL, "serve.cache.misses"); misses != 1 {
		t.Fatalf("serve.cache.misses = %v, want 1", misses)
	}

	var scored queryResponse
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/score",
		[]byte(`{"model":"m1@1","graph":"g1"}`), &scored); code != 200 {
		t.Fatalf("score = %d", code)
	}
	if len(scored.Scores) != 60 {
		t.Fatalf("scores length = %d, want 60", len(scored.Scores))
	}

	// Listing endpoints see both artifacts.
	var models struct {
		Models []serve.ModelInfo `json:"models"`
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/models", nil, &models); code != 200 || len(models.Models) != 1 {
		t.Fatalf("model list = %d %+v", code, models)
	}
	var graphs struct {
		Graphs []serve.GraphInfo `json:"graphs"`
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/graphs", nil, &graphs); code != 200 || len(graphs.Graphs) != 1 {
		t.Fatalf("graph list = %d %+v", code, graphs)
	}

	// Unknown references 404; deletes work.
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/seeds",
		[]byte(`{"model":"nope","graph":"g1"}`), nil); code != 404 {
		t.Fatalf("unknown model = %d, want 404", code)
	}
	if code := doJSON(t, c, http.MethodDelete, ts.URL+"/v1/models/m1", nil, nil); code != 204 {
		t.Fatalf("model delete = %d", code)
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/seeds", query, nil); code != 404 {
		t.Fatalf("seeds after delete = %d, want 404", code)
	}
}

// TestTrainJobLifecycle submits an async training job, polls it to
// completion, and queries the model it registered.
func TestTrainJobLifecycle(t *testing.T) {
	journalDir := t.TempDir()
	s := newTestServer(t, serve.Options{TrainWorkers: 1, JournalDir: journalDir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	g := testGraph(t)
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/graphs/g1", edgeListBytes(t, g), nil); code != 201 {
		t.Fatalf("graph upload = %d", code)
	}

	train := []byte(`{"graph":"g1","model_name":"trained","mode":"non-private","iterations":2,"subgraph_size":8,"hidden_dim":4,"layers":2,"batch_size":4,"seed":1}`)
	var job serve.JobStatus
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/train", train, &job); code != 202 {
		t.Fatalf("train submit = %d", code)
	}
	if job.ID == "" {
		t.Fatalf("no job ID in %+v", job)
	}

	deadline := time.Now().Add(30 * time.Second)
	for job.State != serve.JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s: %+v", job.State, job)
		}
		if job.State == serve.JobFailed {
			t.Fatalf("job failed: %s", job.Error)
		}
		time.Sleep(50 * time.Millisecond)
		if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, nil, &job); code != 200 {
			t.Fatalf("job poll = %d", code)
		}
	}
	if job.Model != "trained@1" {
		t.Fatalf("job model = %q, want trained@1", job.Model)
	}
	if job.Journal == "" {
		t.Fatal("job has no journal path")
	}
	if fi, err := os.Stat(job.Journal); err != nil || fi.Size() == 0 {
		t.Fatalf("journal %s missing or empty: %v", job.Journal, err)
	}
	if filepath.Dir(job.Journal) != journalDir {
		t.Fatalf("journal %s not under %s", job.Journal, journalDir)
	}

	var resp queryResponse
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/seeds",
		[]byte(`{"model":"trained","graph":"g1","k":3}`), &resp); code != 200 {
		t.Fatalf("seeds from trained model = %d", code)
	}
	if len(resp.Seeds) != 3 {
		t.Fatalf("seeds = %v", resp.Seeds)
	}

	var jobs struct {
		Jobs []serve.JobStatus `json:"jobs"`
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/jobs", nil, &jobs); code != 200 || len(jobs.Jobs) != 1 {
		t.Fatalf("job list = %d %+v", code, jobs)
	}
}

// TestAdmissionControl saturates the admission semaphore with a slow
// upload and verifies the next request is shed with 429 (and counted),
// then completes the slow request successfully.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	g := testGraph(t)
	payload := edgeListBytes(t, g)

	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	var slowCode int
	go func() {
		defer wg.Done()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/graphs/slow", pr)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		slowCode = resp.StatusCode
	}()

	// Wait until the slow upload holds the only admission slot.
	waitFor(t, func() bool {
		return metricValue(t, c, ts.URL, "serve.http.inflight") == 1
	}, "slow request never acquired the admission slot")

	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/models", nil, nil); code != http.StatusTooManyRequests {
		t.Fatalf("saturated request = %d, want 429", code)
	}
	if rejected := metricValue(t, c, ts.URL, "serve.http.rejected"); rejected != 1 {
		t.Fatalf("serve.http.rejected = %v, want 1", rejected)
	}

	// Release the slot: finish the upload and verify it succeeded.
	if _, err := pw.Write(payload); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	wg.Wait()
	if slowCode != 201 {
		t.Fatalf("slow upload = %d, want 201", slowCode)
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/models", nil, nil); code != 200 {
		t.Fatalf("post-release request = %d, want 200", code)
	}
}

// TestGracefulShutdown verifies SIGTERM-style draining: Shutdown closes
// the listener but lets the in-flight request finish with a success
// status, and the server-side drain completes.
func TestGracefulShutdown(t *testing.T) {
	s := newTestServer(t, serve.Options{})
	hs := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln) //nolint:errcheck // ErrServerClosed on Shutdown
	base := "http://" + ln.Addr().String()
	c := &http.Client{}

	g := testGraph(t)
	payload := edgeListBytes(t, g)

	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	var inflightCode int
	go func() {
		defer wg.Done()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/graphs/inflight", pr)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := c.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		inflightCode = resp.StatusCode
	}()

	waitFor(t, func() bool {
		return metricValue(t, c, base, "serve.http.inflight") == 1
	}, "in-flight request never started")

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()

	// The listener should stop accepting new work while the in-flight
	// request is still open.
	waitFor(t, func() bool {
		_, err := net.Dial("tcp", ln.Addr().String())
		return err != nil
	}, "listener still accepting after Shutdown")

	// Complete the in-flight request; Shutdown must wait for it.
	if _, err := pw.Write(payload); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	wg.Wait()
	if inflightCode != 201 {
		t.Fatalf("in-flight request = %d, want 201", inflightCode)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("server drain: %v", err)
	}
}

// TestUploadValidation covers malformed inputs and the body-size limit.
func TestUploadValidation(t *testing.T) {
	s := newTestServer(t, serve.Options{MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/bad", []byte("not a checkpoint"), nil); code != 400 {
		t.Fatalf("bad checkpoint = %d, want 400", code)
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/graphs/bad%20name", []byte("0 1\n"), nil); code != 400 {
		t.Fatalf("bad graph name = %d, want 400", code)
	}
	big := []byte("# privim-edgelist nodes=2 directed=1\n" + strings.Repeat("0 1 1\n", 100))
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/graphs/big", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d, want 413", code)
	}
	// A model within the 256-byte limit (13 weights), so only the graph
	// is missing.
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/train", []byte(`{"graph":"missing","hidden_dim":1,"layers":1}`), nil); code != 404 {
		t.Fatalf("train on missing graph = %d, want 404", code)
	}
}

// crashBodies are graph uploads whose claimed node counts dwarf their
// size: an ID of 2³¹ (once a 51.5 GB allocation) and a nodes= header of
// 300M (once 7.2 GB).
var crashBodies = []string{
	"# privim-edgelist nodes=3 directed=1\n0 2147483648\n",
	"# privim-edgelist nodes=300000000 directed=1\n",
}

// TestGraphUploadNodeBound posts both crash bodies: each must get 400,
// and the daemon must accept a valid upload afterwards.
func TestGraphUploadNodeBound(t *testing.T) {
	s := newTestServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	for _, body := range crashBodies {
		if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/graphs/g", []byte(body), nil); code != 400 {
			t.Fatalf("upload %q = %d, want 400", body, code)
		}
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/graphs/g", edgeListBytes(t, testGraph(t)), nil); code != http.StatusCreated {
		t.Fatalf("valid upload after refusals = %d, want 201", code)
	}
}

// TestModelUploadUnbackedHeader uploads a 56-byte checkpoint whose header
// names a 256 MB model and carries no weights: the daemon must answer 400
// without building the model, and keep serving.
func TestModelUploadUnbackedHeader(t *testing.T) {
	s := newTestServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	body := []byte(`{"Kind":"gcn","InputDim":4,"HiddenDim":4000,"Layers":3}` + "\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/huge", body, nil)
	runtime.ReadMemStats(&after)
	if code != 400 {
		t.Fatalf("unbacked checkpoint upload = %d, want 400", code)
	}
	// Client and server share this process; the request itself needs far
	// less than the 256 MB the header names.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("refusing the upload allocated %d bytes", grew)
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/models/huge", nil, nil); code != 404 {
		t.Fatalf("refused model is registered: GET = %d, want 404", code)
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz after refused upload = %d", code)
	}
	g := testGraph(t)
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/m", checkpointBytes(t, g), nil); code != http.StatusCreated {
		t.Fatalf("valid checkpoint upload after refusal = %d, want 201", code)
	}
}

// TestModelUploadNonFiniteWeight uploads a trained checkpoint whose
// readout bias is NaN: scoring it could only produce NaN, so the daemon
// must refuse it with 400, not register it, and keep accepting valid
// uploads.
func TestModelUploadNonFiniteWeight(t *testing.T) {
	s := newTestServer(t, serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := ts.Client()

	g := testGraph(t)
	res, err := core.Train(context.Background(), g, core.Config{
		Mode: core.ModeNonPrivate, SubgraphSize: 8, HiddenDim: 4, Layers: 2, Iterations: 2, BatchSize: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Model.Params.Get("readout.b").Value.Data[0] = math.NaN()
	var buf bytes.Buffer
	if err := res.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/nan", buf.Bytes(), nil); code != 400 {
		t.Fatalf("non-finite checkpoint upload = %d, want 400", code)
	}
	if code := doJSON(t, c, http.MethodGet, ts.URL+"/v1/models/nan", nil, nil); code != 404 {
		t.Fatalf("refused model is registered: GET = %d, want 404", code)
	}
	if code := doJSON(t, c, http.MethodPost, ts.URL+"/v1/models/m", checkpointBytes(t, g), nil); code != http.StatusCreated {
		t.Fatalf("valid checkpoint upload after refusal = %d, want 201", code)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
