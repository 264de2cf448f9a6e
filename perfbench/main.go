// Command perfbench is the repository benchmark: it runs one workload
// against the program's public entry points on inputs it generates from
// a seed, checks the outputs, and prints the measured metrics.
//
//	perfbench --workload pipeline --seed 1 --seconds 35 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics of a traced run, whose span journal is written under --workdir.
// The lines before it record the host, the seed and the input and output
// digests. See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"privim/internal/parallel"
)

// options is one invocation of the benchmark.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input and loop so a smoke test finishes in seconds.
	tiny bool
	// workDir holds the daemon's journal directory and the traced run's
	// span journal.
	workDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every reported metric with its unit; they
// must agree with BENCHMARK.json, which the smoke test checks.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"upload_p50_ms", "ms"},
	{"job_p50_ms", "ms"},
	{"op_cpu_p50_ms", "ms"},
}

var perLayer = []metricSpec{
	{"privim.dpsgd_ms", "ms"},
	{"privim.prep_ms", "ms"},
	{"privim.samples_per_s", "1/s"},
	{"privim.clip_fraction", "ratio"},
	{"privim.checkpoint_ms", "ms"},
	{"sampling.extract_ms", "ms"},
	{"sampling.subgraphs", "count"},
	{"sampling.walk_yield", "ratio"},
	{"dp.account_ms", "ms"},
	{"gnn.score_ms", "ms"},
	{"im.imm_ms", "ms"},
	{"im.rrset_ms", "ms"},
	{"im.rrsets", "count"},
	{"im.cover_ms", "ms"},
	{"im.topk_ms", "ms"},
	{"diffusion.estimate_ms", "ms"},
	{"diffusion.sims_per_s", "1/s"},
	{"graph.load_ms", "ms"},
	{"graph.induce_ms", "ms"},
	{"graph.parse_ms", "ms"},
	{"parallel.dpsgd_imbalance", "ratio"},
	{"parallel.rrset_imbalance", "ratio"},
	{"serve.handler_p50_ms.seeds", "ms"},
	{"serve.handler_p50_ms.score", "ms"},
	{"serve.handler_p50_ms.graphs", "ms"},
	{"serve.handler_p50_ms.train", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.admit_p50_ms", "ms"},
	{"serve.queue_p50_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.query_p99_ms", "ms"},
	{"serve.refused", "count"},
	{"ledger.ops", "count"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_per_op", "count"},
	{"go.cpu_ms_per_op", "ms"},
	{"obs.overhead_pct", "%"},
}

type metricSpec struct{ name, unit string }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"pipeline": runPipeline,
	"classic":  runClassic,
	"daemon":   runDaemon,
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload to run: pipeline, classic or daemon")
	flag.Int64Var(&opts.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&opts.seconds, "seconds", 35, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.BoolVar(&opts.tiny, "tiny", false, "shrink inputs and loops to a seconds-long smoke run")
	flag.StringVar(&opts.workDir, "workdir", ".bench_build/work", "directory for the daemon's state and the trace journal")
	flag.Parse()
	opts.trace = trace != 0
	res, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output checks failed")
	}
}

// run executes one invocation, writes the info line and the result line
// to w, and returns the result.
func run(opts options, w io.Writer) (*result, error) {
	drive, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want pipeline, classic or daemon)", opts.workload)
	}
	if opts.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		return nil, err
	}
	// Pin the Go scheduler and the program's worker pool to the machine, so
	// every run sizes its parallel kernels the same way.
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	parallel.SetLimit(procs)

	rep, err := drive(opts)
	if err != nil {
		return nil, err
	}
	for _, msg := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	info := map[string]any{
		"workload":      opts.workload,
		"seed":          opts.seed,
		"trace":         opts.trace,
		"seconds":       opts.seconds,
		"input_digest":  rep.inputDigest,
		"output_digest": rep.outputDigest,
		"ops":           rep.attempted,
		"host":          hostInfo(),
	}
	for k, v := range rep.info {
		info[k] = v
	}
	specs, values := endToEnd, rep.e2e
	if opts.trace {
		specs, values = perLayer, rep.layer
	}
	res := &result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(specs)),
	}
	var missing []string
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, s.name)
			continue
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("%s: metrics not measured: %v", opts.workload, missing)
	}
	if err := writeJSONLine(w, info); err != nil {
		return nil, err
	}
	if err := writeJSONLine(w, res); err != nil {
		return nil, err
	}
	return res, nil
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// report is what a workload measured and checked.
type report struct {
	attempted, failed int
	// failures describes every failed check.
	failures     []string
	inputDigest  string
	outputDigest string
	e2e, layer   map[string]float64
	info         map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// expect records a failed check when ok is false and returns ok.
func (r *report) expect(ok bool, format string, args ...any) bool {
	if !ok && len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// runCheck is a whole-run check: a failure counts as one failed operation.
func (r *report) runCheck(ok bool, format string, args ...any) {
	if !r.expect(ok, format, args...) {
		r.failed++
	}
}

// report fills the end-to-end metrics from a workload's steps: set-up,
// the whole operation, a seed query computed from scratch ("miss"), a
// graph upload or parse, and the operation's long batch step ("job").
// Steps are reported in wall-clock time net of steal, set-up and the
// operations also in CPU time. peakRSS is the workload's steady measure
// of peak resident memory. The process's lifetime high-water mark goes to
// the info line only: it jumps when a collection happens to mark a large
// computation in flight and so raises the next heap goal (a pipeline
// run's went from 72 to 107 MB in one run of ten, and a third of the runs
// of one seed).
func (r *report) report(setup, op, miss, upload, job *timings, peakRSS float64) {
	r.e2e["setup_s"] = median(setup.cpu) / 1e3
	r.e2e["peak_rss_mb"] = peakRSS
	r.info["lifetime_peak_rss_mb"] = peakRSSMB()
	r.e2e["op_p50_ms"] = median(op.wall)
	r.e2e["op_p90_ms"] = quantile(op.wall, 0.9)
	r.e2e["miss_p50_ms"] = median(miss.wall)
	r.e2e["miss_p90_ms"] = quantile(miss.wall, 0.9)
	r.e2e["upload_p50_ms"] = median(upload.wall)
	r.e2e["job_p50_ms"] = median(job.wall)
	r.e2e["op_cpu_p50_ms"] = median(op.cpu)
	r.info["samples"] = map[string]int{
		"setup": len(setup.cpu), "op": len(op.cpu), "miss": len(miss.cpu), "upload": len(upload.cpu), "job": len(job.cpu),
	}
}

// finite drops the figures that had no samples (NaN), which JSON cannot
// carry, from an info-line map.
func finite(m map[string]float64) map[string]float64 {
	for k, v := range m {
		if math.IsNaN(v) {
			delete(m, k)
		}
	}
	return m
}

// deadline is the end of a measured phase that starts now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
