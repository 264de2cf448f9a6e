package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privim"
	"privim/internal/graph"
	"privim/internal/serve"
)

// daemonSize fixes the daemon workload's inputs and traffic.
type daemonSize struct {
	graphs      int // stored graphs the traffic spreads over
	nodes, arcs int // per graph
	ks          []int
	rate        float64 // offered requests per second
	// uploadEvery and jobEvery are the periods, in requests, of the graph
	// re-uploads and of the training jobs.
	uploadEvery, jobEvery int
	job                   string // /v1/train body template; %s is the graph, %d the seed
	budget                float64
	setups                int
	probes                int // repetitions of the out-of-server parse and score timings
	modelIt               int // training iterations of the uploaded model
	// rssJobs is how many of the sequential phase's first jobs give the
	// memory figure.
	rssJobs int
}

func daemonSizes(tiny bool) daemonSize {
	ks := make([]int, 0, 20)
	for k := 5; k <= 100; k += 5 {
		ks = append(ks, k)
	}
	const job = `{"graph":%q,"epsilon":1,"iterations":20,"subgraph_size":20,"hidden_dim":16,"layers":2,"batch_size":16,"seed":%d}`
	if tiny {
		const tinyJob = `{"graph":%q,"epsilon":1,"iterations":12,"subgraph_size":10,"hidden_dim":8,"layers":2,"batch_size":4,"seed":%d}`
		return daemonSize{graphs: 2, nodes: 300, arcs: 1800, ks: []int{5, 10}, rate: 50, uploadEvery: 20, jobEvery: 10,
			job: tinyJob, budget: 100, setups: 2, probes: 2, modelIt: 2, rssJobs: 2}
	}
	return daemonSize{graphs: 4, nodes: 600, arcs: 3600, ks: ks, rate: 100, uploadEvery: 100, jobEvery: 100,
		job: job, budget: 100, setups: 11, probes: 5, modelIt: 10, rssJobs: 20}
}

// daemonInput is everything the daemon workload sends: one edge list per
// stored graph (header and arcs kept apart, so a re-upload can announce a
// few extra isolated nodes and thereby change the graph's fingerprint
// without another copy of the arcs), and the uploaded model with the
// generated graph it was trained on.
type daemonInput struct {
	arcs       [][]byte
	modelGraph []byte
	model      []byte
}

// daemonGraphs generates the daemon workload's edge lists.
func daemonGraphs(seed int64, sz daemonSize) *daemonInput {
	in := &daemonInput{modelGraph: edgeList(sz.nodes, powerLawArcs(sz.nodes, sz.arcs, newSplitmix(seed, 3)))}
	for g := 0; g < sz.graphs; g++ {
		in.arcs = append(in.arcs, edgeListBody(powerLawArcs(sz.nodes, sz.arcs, newSplitmix(seed, uint64(10+g)))))
	}
	return in
}

func makeDaemonInput(seed int64, sz daemonSize) (*daemonInput, error) {
	in := daemonGraphs(seed, sz)
	// The served model: PrivIM* trained on a graph of the same shape.
	mg, err := graph.ReadEdgeList(bytes.NewReader(in.modelGraph))
	if err != nil {
		return nil, err
	}
	res, err := privim.Train(mg, privim.Config{Mode: privim.ModeDual, Epsilon: 3, Iterations: sz.modelIt, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("training the served model: %w", err)
	}
	var buf bytes.Buffer
	if err := res.SaveModel(&buf); err != nil {
		return nil, err
	}
	in.model = buf.Bytes()
	return in, nil
}

// body is graph g's edge list at upload version v: v extra isolated
// nodes, so every version has its own fingerprint.
func (in *daemonInput) body(sz daemonSize, g, v int) ([]byte, []byte) {
	return edgeListHeader(sz.nodes + v), in.arcs[g]
}

// digest covers the generated bytes only; the model is the program's own
// output.
func (in *daemonInput) digest(sz daemonSize) string {
	parts := [][]byte{in.modelGraph}
	for g := range in.arcs {
		h, a := in.body(sz, g, 0)
		parts = append(parts, h, a)
	}
	return digest(parts...)
}

// request kinds of the traffic mix.
const (
	kindSeeds = iota
	kindScore
	kindUpload
	kindTrain
)

var kindNames = []string{"seeds", "score", "upload", "train"}

// planned is one request of the schedule.
type planned struct {
	kind, graph, k, version int
}

// planner draws the request schedule: re-uploads and training jobs at
// fixed periods (1 % each at full size), and otherwise /v1/seeds and
// /v1/score in the ratio 83 : 9, so the whole mix is about 88 % seeds,
// 10 % score, 1 % uploads and 1 % jobs. Each re-upload gets the next
// version of its graph.
type planner struct {
	sz       daemonSize
	r        *splitmix
	versions []int
	i        int
}

func newPlanner(seed int64, sz daemonSize) *planner {
	return &planner{sz: sz, r: newSplitmix(seed, 4), versions: make([]int, sz.graphs)}
}

func (pl *planner) next() planned {
	p := planned{graph: pl.r.intn(pl.sz.graphs)}
	switch u := pl.r.intn(83 + 9); {
	case pl.i%pl.sz.jobEvery == 0:
		p.kind = kindTrain
	case pl.i%pl.sz.uploadEvery == pl.sz.jobEvery/2:
		p.kind = kindUpload
		pl.versions[p.graph]++
		p.version = pl.versions[p.graph]
	case u < 83:
		p.kind = kindSeeds
		p.k = pl.sz.ks[pl.r.intn(len(pl.sz.ks))]
	default:
		p.kind = kindScore
	}
	pl.i++
	return p
}

func graphName(g int) string { return "g" + strconv.Itoa(g) }

// benchTraceHeader marks the requests of a traced run whose handler time
// the benchmark records.
const benchTraceHeader = "X-Perfbench-Trace"

// handlerTimer times Handler().ServeHTTP per route for marked requests.
type handlerTimer struct {
	next http.Handler
	mu   sync.Mutex
	ms   map[string][]float64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(benchTraceHeader) == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	d := ms(time.Since(start))
	route := "other"
	switch p := r.URL.Path; {
	case p == "/v1/seeds":
		route = "seeds"
	case p == "/v1/score":
		route = "score"
	case p == "/v1/train":
		route = "train"
	case strings.HasPrefix(p, "/v1/graphs/"):
		route = "graphs"
	}
	h.mu.Lock()
	h.ms[route] = append(h.ms[route], d)
	h.mu.Unlock()
}

// daemon is one running in-process server with an HTTP listener.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	served chan struct{}
	base   string
	timer  *handlerTimer
}

// startDaemon is the daemon's set-up: serve.New as privimd -journal-dir
// -budget builds it, a loopback listener, the model upload and the graph
// uploads.
func startDaemon(client *http.Client, dir string, in *daemonInput, sz daemonSize, o privim.Observer) (*daemon, error) {
	srv, err := serve.New(serve.Options{JournalDir: dir, Budget: sz.budget, Observer: o})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, served: make(chan struct{}), base: "http://" + ln.Addr().String(),
		timer: &handlerTimer{next: srv.Handler(), ms: map[string][]float64{}}}
	d.http = &http.Server{Handler: d.timer}
	go func() {
		defer close(d.served)
		// Serve returns http.ErrServerClosed once stop shuts it down; any
		// earlier failure fails the requests, which the checks count.
		_ = d.http.Serve(ln)
	}()
	if err := d.call(client, "POST", "/v1/models/m", bytes.NewReader(in.model), http.StatusCreated, nil); err != nil {
		d.stop()
		return nil, fmt.Errorf("model upload: %w", err)
	}
	for g := range in.arcs {
		h, a := in.body(sz, g, 0)
		if err := d.call(client, "POST", "/v1/graphs/"+graphName(g), io.MultiReader(bytes.NewReader(h), bytes.NewReader(a)),
			http.StatusCreated, nil); err != nil {
			d.stop()
			return nil, fmt.Errorf("graph upload: %w", err)
		}
	}
	return d, nil
}

// stop shuts the listener and the server down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	<-d.served
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// call performs one request and decodes a JSON answer into out when out
// is non-nil; a status other than want is an error.
func (d *daemon) call(client *http.Client, method, path string, body io.Reader, want int, out any) error {
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// queryAnswer is the part of a /v1/seeds or /v1/score answer the checks
// read.
type queryAnswer struct {
	Fingerprint string    `json:"fingerprint"`
	K           int       `json:"k"`
	Seeds       []int32   `json:"seeds"`
	Scores      []float64 `json:"scores"`
	Cached      bool      `json:"cached"`
}

// answerKey is the server's cache key as the client sees it.
type answerKey struct {
	fp   string
	mode int
	k    int
}

// answers checks every query answer against the first answer for its
// key, which the server computed uncached (a new fingerprint starts with
// no cache entries), and each fingerprint's seeds against the top k of
// its scores.
type answers struct {
	mu     sync.Mutex
	first  map[answerKey]string
	scores map[string][]float64
	seeds  map[answerKey][]int32
}

func newAnswers() *answers {
	return &answers{first: map[answerKey]string{}, scores: map[string][]float64{}, seeds: map[answerKey][]int32{}}
}

// add records one answer and reports whether it agrees with the first
// answer for the same key.
func (a *answers) add(mode int, ans *queryAnswer) bool {
	var d outputDigest
	d.nodes(ans.Seeds)
	for _, s := range ans.Scores {
		d.float(s)
	}
	sum := d.sum()
	key := answerKey{ans.Fingerprint, mode, ans.K}
	a.mu.Lock()
	defer a.mu.Unlock()
	first, seen := a.first[key]
	if !seen {
		a.first[key] = sum
		if mode == kindScore {
			a.scores[ans.Fingerprint] = ans.Scores
		} else {
			a.seeds[key] = ans.Seeds
		}
		return true
	}
	return first == sum
}

// topKAgrees compares every recorded seed set with the top k of the
// scores recorded for the same fingerprint, and returns the number of
// sets compared and the first disagreement.
func (a *answers) topKAgrees() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for key, seeds := range a.seeds {
		scores, ok := a.scores[key.fp]
		if !ok {
			continue
		}
		n++
		want := privim.TopKScores(scores, key.k)
		if !equalNodes(seeds, want) {
			return n, fmt.Errorf("fingerprint %s k=%d: /v1/seeds %v, top k of /v1/score %v", key.fp, key.k, seeds, want)
		}
	}
	return n, nil
}

func equalNodes(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sent is what the load generator measured for one scheduled request.
type sent struct {
	kind     int
	status   int
	cached   bool
	late, rt float64 // ms: send − due and answer − due
	answer   []byte  // body of a query or job submission, until checked
	job      string
}

// runDaemon drives an in-process privimd in two phases of half the run
// each. The sequential phase replays the traffic mix one request at a
// time, running each training job to completion, so no request waits
// behind another and each one's CPU time is its own: it gives the bounded
// metrics. The open-loop phase then offers a fixed rate over two
// connections and times every request from when it was due; its
// latencies, queueing and load-generator lateness are reported in the
// info line and as per-layer metrics.
func runDaemon(opts options) (*report, error) {
	sz := daemonSizes(opts.tiny)
	r := newReport()
	in, err := makeDaemonInput(opts.seed, sz)
	if err != nil {
		return nil, err
	}
	r.inputDigest = in.digest(sz)
	root, err := os.MkdirTemp(opts.workDir, "daemon-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var rec *recorder
	var tracer privim.Observer
	if opts.trace {
		rec = &recorder{}
		tracer = rec
	}
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	var setup timings
	var d *daemon
	for i := 0; i < sz.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			transport.CloseIdleConnections()
		}
		gcBeforePhase()
		w := startWatch()
		d, err = startDaemon(client, filepath.Join(root, strconv.Itoa(i)), in, sz, tracer)
		if err != nil {
			return nil, fmt.Errorf("daemon set-up: %w", err)
		}
		setup.add(w.stop())
	}
	defer d.stop()

	checks := newAnswers()
	warmUp(client, d, sz, checks, r)
	// The traced run reads the server's own counters around the traffic.
	var before, after map[string]any
	if opts.trace {
		if err := d.call(client, "GET", "/metrics", nil, http.StatusOK, &before); err != nil {
			return nil, err
		}
	}

	pl := newPlanner(opts.seed, sz)
	phase := opts.seconds / 2
	seq := sequential(client, d, sz, in, pl, phase, opts.trace, checks, r)
	open := openLoop(client, d, sz, in, pl, phase, opts.trace)

	jobs, err := settleJobs(client, d)
	if err != nil {
		return nil, err
	}
	if opts.trace {
		if err := d.call(client, "GET", "/metrics", nil, http.StatusOK, &after); err != nil {
			return nil, err
		}
	}

	// Open-loop outcomes, checked now that the timed phase is over.
	var all, misses, uploads, admits, queries, lates []float64
	refused := 0
	submitted := map[string]bool{}
	for i := range open.results {
		s := &open.results[i]
		r.attempted++
		ok := r.expect(s.check(checks), "request %d (%s): status %d or a wrong answer", i, kindNames[s.kind], s.status)
		if !ok {
			r.failed++
		}
		if s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable {
			refused++
		}
		all = append(all, s.rt)
		lates = append(lates, s.late)
		switch s.kind {
		case kindSeeds, kindScore:
			queries = append(queries, s.rt)
			if ok && !s.cached {
				misses = append(misses, s.rt)
			}
		case kindUpload:
			uploads = append(uploads, s.rt)
		case kindTrain:
			admits = append(admits, s.rt)
			if s.job != "" {
				submitted[s.job] = true
			}
		}
	}
	// A server that keeps up lets the senders go on time; a backlog holds
	// them back and shows as a shortfall.
	achieved := float64(len(open.results)) / open.elapsed.Seconds()
	r.info["offered_rps"] = sz.rate
	r.info["achieved_rps"] = achieved
	r.runCheck(achieved >= 0.95*sz.rate, "achieved %.1f req/s of the offered %.0f", achieved, sz.rate)

	// Jobs: every one done; the open-loop ones timed from created to
	// finished.
	var jobMS, queueMS, runMS []float64
	byFP := map[string][]float64{}
	for _, j := range jobs {
		byFP[j.Fingerprint] = append(byFP[j.Fingerprint], j.EpsilonSpent)
		r.runCheck(j.State == serve.JobDone, "job %s ended %s: %s", j.ID, j.State, j.Error)
		if submitted[j.ID] {
			jobMS = append(jobMS, ms(j.Finished.Sub(j.Created)))
			queueMS = append(queueMS, ms(j.Started.Sub(j.Created)))
			runMS = append(runMS, ms(j.Finished.Sub(j.Started)))
		}
	}
	r.runCheck(len(jobMS) == len(submitted), "%d jobs submitted, %d found", len(submitted), len(jobMS))
	checkBudget(client, d, byFP, r)
	compared, err := checks.topKAgrees()
	r.runCheck(err == nil, "seeds against scores: %v", err)
	r.runCheck(compared > 0, "no fingerprint had both seeds and scores answers")
	r.info["topk_compared"] = compared

	r.report(&setup, &seq.op, &seq.miss, &seq.upload, &seq.job, median(seq.rss))
	r.info["open_loop_ms"] = finite(map[string]float64{
		"op_p50":     median(all),
		"op_p90":     quantile(all, 0.9),
		"miss_p50":   median(misses),
		"miss_p90":   quantile(misses, 0.9),
		"upload_p50": median(uploads),
		"job_p50":    median(jobMS),
	})
	r.info["open_loop"] = map[string]int{"requests": len(all), "misses": len(misses), "uploads": len(uploads), "jobs": len(jobMS)}
	if opts.trace {
		l := r.layer
		zeroLayers(l)
		v := rec.view()
		trainLayers(l, v)
		l["privim.checkpoint_ms"] = histMean(before, after, "train.checkpoint.save_us") / 1e3
		parse, score, err := probeOutsideServer(in, sz)
		if err != nil {
			return nil, err
		}
		l["graph.parse_ms"] = parse
		l["gnn.score_ms"] = score
		d.timer.mu.Lock()
		for _, route := range []string{"seeds", "score", "graphs", "train"} {
			l["serve.handler_p50_ms."+route] = median(d.timer.ms[route])
		}
		d.timer.mu.Unlock()
		hits := counterDelta(before, after, "serve.cache.hits")
		miss := counterDelta(before, after, "serve.cache.misses")
		l["serve.hit_ratio"] = hits / (hits + miss)
		l["serve.admit_p50_ms"] = median(admits)
		l["serve.queue_p50_ms"] = median(queueMS)
		l["serve.run_p50_ms"] = median(runMS)
		l["serve.query_p99_ms"] = quantile(queries, 0.99)
		l["serve.refused"] = float64(refused)
		ledgerOps := 0.0
		for name := range after {
			// Counters ledger.<op>; the labeled ledger gauges carry "{".
			if strings.HasPrefix(name, "ledger.") && !strings.Contains(name, "{") {
				ledgerOps += counterDelta(before, after, name)
			}
		}
		l["ledger.ops"] = ledgerOps
		l["loadgen.late_p50_ms"] = median(lates)
		l["loadgen.late_p99_ms"] = quantile(lates, 0.99)
		open.cost.record(l)
		l["obs.overhead_pct"] = overheadPct(seq.untraced, seq.traced)
		if err := rec.writeJournal(filepath.Join(opts.workDir, "trace-daemon.jsonl")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// warmUp fills the cache with every key of every graph and runs one
// training job to completion. Its answers and the job's ε form the output
// digest, which is the same in every run.
func warmUp(client *http.Client, d *daemon, sz daemonSize, checks *answers, r *report) {
	var out outputDigest
	for g := 0; g < sz.graphs; g++ {
		for _, k := range sz.ks {
			var ans queryAnswer
			r.attempted++
			err := d.call(client, "POST", "/v1/seeds", queryBody(g, k), http.StatusOK, &ans)
			if !r.expect(err == nil && checks.add(kindSeeds, &ans), "warm-up seeds g%d k=%d: %v", g, k, err) {
				r.failed++
			}
			out.nodes(ans.Seeds)
		}
		var ans queryAnswer
		r.attempted++
		err := d.call(client, "POST", "/v1/score", queryBody(g, 0), http.StatusOK, &ans)
		if !r.expect(err == nil && checks.add(kindScore, &ans), "warm-up score g%d: %v", g, err) {
			r.failed++
		}
		for _, s := range ans.Scores {
			out.float(s)
		}
	}
	var job serve.JobStatus
	r.attempted++
	err := d.call(client, "POST", "/v1/train", bytes.NewReader([]byte(fmt.Sprintf(sz.job, graphName(0), 0))), http.StatusAccepted, &job)
	if err == nil {
		job, err = waitJob(client, d, job.ID)
	}
	if !r.expect(err == nil && job.State == serve.JobDone, "warm-up job: %v (state %s)", err, job.State) {
		r.failed++
	}
	out.float(job.EpsilonSpent)
	r.outputDigest = out.sum()
}

// openLoopRun is what the open-loop phase measured.
type openLoopRun struct {
	results []sent
	// elapsed runs from the first due time to one interval past the last
	// send: a load generator that keeps pace sends n requests in n
	// intervals.
	elapsed time.Duration
	cost    runtimeCost
}

// openLoop offers sz.rate requests per second for the given seconds over
// two connections: each of two senders takes the next request, waits for
// its due time and sends it, so a request due while both are busy waits
// and its latency, timed from due, shows the stall.
func openLoop(client *http.Client, d *daemon, sz daemonSize, in *daemonInput, pl *planner, seconds float64, trace bool) *openLoopRun {
	n := int(sz.rate*seconds + 0.5)
	schedule := make([]planned, n)
	first := pl.i
	for i := range schedule {
		schedule[i] = pl.next()
	}
	run := &openLoopRun{results: make([]sent, n)}
	gcBeforePhase()
	before := sampleRuntime()
	t0 := time.Now().Add(10 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / sz.rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	sender := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			due := t0.Add(time.Duration(i) * interval)
			waitUntil(due)
			// Traced and untraced periods alternate, so each holds its share
			// of every request kind.
			traced := trace && (i/sz.uploadEvery)%2 == 1
			run.results[i] = issue(client, d, sz, in, schedule[i], first+i, traced, due)
		}
	}
	wg.Add(2)
	go sender()
	go sender()
	wg.Wait()
	for i, s := range run.results {
		sent := time.Duration(i)*interval + time.Duration(s.late*float64(time.Millisecond))
		if sent+interval > run.elapsed {
			run.elapsed = sent + interval
		}
	}
	run.cost.add(before, sampleRuntime(), n)
	return run
}

// sequentialRun is what the sequential phase measured, by request kind.
type sequentialRun struct {
	op, miss, upload, job timings
	// untraced and traced split op for the tracing overhead.
	untraced, traced timings
	// rss is the resident memory, in MB, when each of the first sz.rssJobs
	// jobs is done. Every job starts from a heap whose free memory went
	// back to the OS, so this is what the server holds (models, cached
	// answers, stored graphs) plus the job's own peak. Those jobs come at
	// the same requests in every run of a seed, so the server holds the
	// same state at each.
	rss []float64
}

// sequential replays the traffic mix one request at a time for the given
// seconds, and at least until the memory figure's jobs are done. Answers
// are checked after each request's timing; a training request is timed
// from submission until its job is done.
func sequential(client *http.Client, d *daemon, sz daemonSize, in *daemonInput, pl *planner, seconds float64, trace bool,
	checks *answers, r *report) *sequentialRun {
	run := &sequentialRun{}
	gcBeforePhase()
	host := readHostTicks()
	rssUntil := sz.rssJobs * sz.jobEvery
	for end, n := deadline(seconds), 0; time.Now().Before(end) || n < rssUntil; n++ {
		idx := pl.i
		p := pl.next()
		traced := trace && n%2 == 1
		if p.kind == kindTrain {
			debug.FreeOSMemory()
		}
		w := startWatch()
		s := issue(client, d, sz, in, p, idx, traced, w.wall)
		if p.kind == kindTrain {
			ok := s.check(checks)
			var st serve.JobStatus
			if ok {
				var err error
				st, err = waitJob(client, d, s.job)
				ok = err == nil && st.State == serve.JobDone
			}
			r.attempted++
			if !r.expect(ok, "sequential job %s: status %d", s.job, s.status) {
				r.failed++
				continue
			}
			// The job's wall-clock time comes from its status, from
			// created to finished, not from the polling.
			run.job.add(w.stopAt(st.Finished.Sub(st.Created)))
			if n < rssUntil {
				run.rss = append(run.rss, rssMB())
			}
			continue
		}
		t := w.stop()
		r.attempted++
		if !r.expect(s.check(checks), "sequential request %d (%s): status %d or a wrong answer", idx, kindNames[p.kind], s.status) {
			r.failed++
			continue
		}
		run.op.add(t)
		if traced {
			run.traced.add(t)
		} else {
			run.untraced.add(t)
		}
		switch {
		case p.kind == kindUpload:
			run.upload.add(t)
		case (p.kind == kindSeeds || p.kind == kindScore) && !s.cached:
			run.miss.add(t)
		}
	}
	r.info["host_steal_pct"] = host.stealPct(readHostTicks())
	return run
}

func queryBody(g, k int) io.Reader {
	if k == 0 {
		return bytes.NewReader([]byte(`{"model":"m@1","graph":"` + graphName(g) + `"}`))
	}
	return bytes.NewReader([]byte(`{"model":"m@1","graph":"` + graphName(g) + `","k":` + strconv.Itoa(k) + `}`))
}

// waitUntil sleeps to just before t and then yields until t arrives, so
// requests leave on time instead of a timer tick late.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// issue sends one scheduled request. The answer is kept and checked
// after the measured phase, so the load generator does no decoding
// while it times.
func issue(client *http.Client, d *daemon, sz daemonSize, in *daemonInput, p planned, i int, traced bool, due time.Time) sent {
	s := sent{kind: p.kind}
	var method, path string
	var body io.Reader
	switch p.kind {
	case kindSeeds:
		method, path, body = "POST", "/v1/seeds", queryBody(p.graph, p.k)
	case kindScore:
		method, path, body = "POST", "/v1/score", queryBody(p.graph, 0)
	case kindUpload:
		h, a := in.body(sz, p.graph, p.version)
		method, path, body = "POST", "/v1/graphs/"+graphName(p.graph), io.MultiReader(bytes.NewReader(h), bytes.NewReader(a))
	case kindTrain:
		method, path, body = "POST", "/v1/train", bytes.NewReader([]byte(fmt.Sprintf(sz.job, graphName(p.graph), i+1)))
	}
	req, err := http.NewRequest(method, d.base+path, body)
	if err != nil {
		return s
	}
	if traced {
		req.Header.Set(benchTraceHeader, "1")
	}
	start := time.Now()
	s.late = ms(start.Sub(due))
	resp, err := client.Do(req)
	if err != nil {
		s.rt = ms(time.Since(due))
		return s
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.rt = ms(time.Since(due))
	if err != nil {
		return s
	}
	s.status = resp.StatusCode
	if p.kind == kindSeeds || p.kind == kindScore || p.kind == kindTrain {
		s.answer = data
	}
	return s
}

// check decodes a kept answer: a query answer must agree with the first
// answer for its key, and a job submission yields the job's ID.
func (s *sent) check(checks *answers) bool {
	if s.status/100 != 2 {
		return false
	}
	defer func() { s.answer = nil }()
	switch s.kind {
	case kindSeeds, kindScore:
		var ans queryAnswer
		if json.Unmarshal(s.answer, &ans) != nil {
			return false
		}
		s.cached = ans.Cached
		return checks.add(s.kind, &ans)
	case kindTrain:
		var st serve.JobStatus
		if json.Unmarshal(s.answer, &st) != nil {
			return false
		}
		s.job = st.ID
	}
	return true
}

// waitJob polls one job until it finishes (warm-up and the sequential
// phase; the open loop never polls).
func waitJob(client *http.Client, d *daemon, id string) (serve.JobStatus, error) {
	for start := time.Now(); time.Since(start) < time.Minute; time.Sleep(25 * time.Millisecond) {
		var st serve.JobStatus
		if err := d.call(client, "GET", "/v1/jobs/"+id, nil, http.StatusOK, &st); err != nil {
			return st, err
		}
		switch st.State {
		case serve.JobQueued, serve.JobRunning, serve.JobCanceling:
			continue
		}
		return st, nil
	}
	return serve.JobStatus{}, errors.New("job did not finish within a minute")
}

// settleJobs waits, after the measured phase, until no job is queued or
// running and returns every job's final status.
func settleJobs(client *http.Client, d *daemon) ([]serve.JobStatus, error) {
	for start := time.Now(); time.Since(start) < time.Minute; time.Sleep(20 * time.Millisecond) {
		var list struct {
			Jobs []serve.JobStatus `json:"jobs"`
		}
		if err := d.call(client, "GET", "/v1/jobs", nil, http.StatusOK, &list); err != nil {
			return nil, err
		}
		busy := false
		for _, j := range list.Jobs {
			if j.State == serve.JobQueued || j.State == serve.JobRunning || j.State == serve.JobCanceling {
				busy = true
			}
		}
		if !busy {
			return list.Jobs, nil
		}
	}
	return nil, errors.New("jobs did not settle within a minute")
}

// checkBudget reads GET /v1/budget: nothing may stay reserved, and each
// fingerprint's committed ε lies between its largest job's ε and the sum
// of its jobs' ε (the ledger composes at the RDP level, so it is below
// the sum and never below a single charge).
func checkBudget(client *http.Client, d *daemon, byFP map[string][]float64, r *report) {
	var budget struct {
		Budgets []struct {
			Graph     string  `json:"graph"`
			Committed float64 `json:"committed"`
			Reserved  float64 `json:"reserved"`
		} `json:"budgets"`
	}
	err := d.call(client, "GET", "/v1/budget", nil, http.StatusOK, &budget)
	r.runCheck(err == nil, "GET /v1/budget: %v", err)
	r.runCheck(len(budget.Budgets) == len(byFP), "%d budget entries for %d trained fingerprints", len(budget.Budgets), len(byFP))
	for _, b := range budget.Budgets {
		eps := byFP[b.Graph]
		lo, hi := 0.0, 0.0
		for _, e := range eps {
			lo = math.Max(lo, e)
			hi += e
		}
		r.runCheck(b.Reserved == 0, "fingerprint %s: %v ε still reserved", b.Graph, b.Reserved)
		r.runCheck(len(eps) > 0 && b.Committed >= lo*(1-1e-9) && b.Committed <= hi*(1+1e-9),
			"fingerprint %s: committed ε %v outside [%v, %v]", b.Graph, b.Committed, lo, hi)
	}
}

// probeOutsideServer times, outside the server, the parse of one upload
// body and ScoreModel of the served model on that graph (medians).
func probeOutsideServer(in *daemonInput, sz daemonSize) (parseMS, scoreMS float64, err error) {
	h, a := in.body(sz, 0, 0)
	data := append(append([]byte(nil), h...), a...)
	model, err := privim.LoadModel(bytes.NewReader(in.model))
	if err != nil {
		return 0, 0, err
	}
	var parses, scores []float64
	for i := 0; i < sz.probes; i++ {
		start := time.Now()
		g, err := graph.ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return 0, 0, err
		}
		parses = append(parses, ms(time.Since(start)))
		start = time.Now()
		privim.ScoreModel(model, g)
		scores = append(scores, ms(time.Since(start)))
	}
	return median(parses), median(scores), nil
}

// counterDelta is the change of a /metrics counter over the phase.
func counterDelta(before, after map[string]any, name string) float64 {
	b, _ := before[name].(float64)
	a, _ := after[name].(float64)
	return a - b
}

// histMean is the mean of a /metrics histogram's observations made
// during the phase (NaN when there were none).
func histMean(before, after map[string]any, name string) float64 {
	read := func(m map[string]any) (count, sum float64) {
		h, _ := m[name].(map[string]any)
		count, _ = h["count"].(float64)
		sum, _ = h["sum"].(float64)
		return count, sum
	}
	bc, bs := read(before)
	ac, as := read(after)
	if ac == bc {
		return math.NaN()
	}
	return (as - bs) / (ac - bc)
}
