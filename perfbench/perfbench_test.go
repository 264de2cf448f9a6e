package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"privim"
)

// The generated inputs of every workload at full size for seed 1. A
// change here changes what the benchmark measures, so it must be made on
// purpose, in a change of its own.
func TestInputDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		workload, got, want string
	}{
		{"pipeline", digest(pipelineInput(1, pipelineSizes(false))), pinnedPipeline},
		{"classic", digest(classicInput(1, classicSizes(false))), pinnedClassic},
		{"daemon", daemonGraphs(1, daemonSizes(false)).digest(daemonSizes(false)), pinnedDaemon},
	} {
		if tc.got != tc.want {
			t.Errorf("%s input digest = %s, pinned %s", tc.workload, tc.got, tc.want)
		}
	}
}

const (
	pinnedPipeline = "5863151a29c8e7f47fde35c9904d114b1794901c271b752445cd56da9d6d645d"
	pinnedClassic  = "c91f6fea327bb3013cf9dd905d0b89a26b5fd2c841d7fc5d763a046103078c70"
	pinnedDaemon   = "e98c5d654e2c996f217f26f6ec4f79423a9e894542028128d6e0232d27b09817"
)

func TestPowerLawArcs(t *testing.T) {
	const n, m = 500, 3000
	arcs := powerLawArcs(n, m, newSplitmix(7, 1))
	if len(arcs) != m {
		t.Fatalf("%d arcs, want %d", len(arcs), m)
	}
	seen := make(map[arc]bool, m)
	in := make([]int, n)
	for _, a := range arcs {
		if a.from == a.to || a.from < 0 || a.to < 0 || a.from >= n || a.to >= n || seen[a] {
			t.Fatalf("bad or repeated arc %v", a)
		}
		seen[a] = true
		in[a.to]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(in)))
	if in[0] < 4*m/n {
		t.Errorf("largest in-degree %d: no hubs, want a heavy tail", in[0])
	}
}

func TestSelfTime(t *testing.T) {
	at := func(msec int) time.Time { return time.Unix(0, 0).Add(time.Duration(msec) * time.Millisecond) }
	var log []stamped
	add := func(id, parent uint64, name string, from, to int) {
		log = append(log,
			stamped{at(from), privim.SpanStart{ID: id, Parent: parent, Span: name}},
			stamped{at(to), privim.SpanEnd{ID: id, Parent: parent, Span: name, Elapsed: at(to).Sub(at(from))}})
	}
	add(1, 0, "root", 0, 10)
	add(2, 1, "a", 0, 3)
	add(3, 1, "b", 2, 5) // overlaps a: the union counts once
	add(4, 1, "c", 7, 8)
	add(5, 4, "grandchild", 7, 8)
	v := newTraceView(log)
	if got := v.selfDurations("root"); len(got) != 1 || got[0] != 4 {
		t.Errorf("self time of root = %v ms, want [4]", got)
	}
	if got := v.durations("b"); len(got) != 1 || got[0] != 3 {
		t.Errorf("duration of b = %v ms, want [3]", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that every metric BENCHMARK.json names is reported, finite and
// in its unit, that every output check passes, and that the traced run
// leaves a journal the program's own decoder reads.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			var out bytes.Buffer
			res, err := run(options{workload: w.Name, seed: 3, seconds: 2, trace: trace, tiny: true, workDir: dir}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < digestOps {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var info struct {
				Seed         int64  `json:"seed"`
				InputDigest  string `json:"input_digest"`
				OutputDigest string `json:"output_digest"`
			}
			if len(lines) != 2 || json.Unmarshal(lines[0], &info) != nil || info.Seed != 3 ||
				len(info.InputDigest) != 64 || len(info.OutputDigest) != 64 {
				t.Errorf("%s trace=%v: info line %q lacks the seed or a digest", w.Name, trace, lines[0])
			}
			if trace {
				checkJournal(t, filepath.Join(dir, "trace-"+w.Name+".jsonl"))
			}
		}
	}
}

// checkJournal decodes every journal line and checks the spans pair up.
func checkJournal(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	open := map[uint64]bool{}
	spans := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		ev, _, err := privim.DecodeJournalRecord(sc.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		switch e := ev.(type) {
		case *privim.SpanStart:
			open[e.ID] = true
			spans++
		case *privim.SpanEnd:
			if !open[e.ID] {
				t.Fatalf("%s: span %d (%s) ends without a start", path, e.ID, e.Span)
			}
			delete(open, e.ID)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if spans == 0 || len(open) != 0 {
		t.Errorf("%s: %d spans, %d left open", path, spans, len(open))
	}
}

// TestOutputDigestRepeats checks that two runs with the same seed produce
// the same outputs.
func TestOutputDigestRepeats(t *testing.T) {
	for _, w := range []string{"pipeline", "classic", "daemon"} {
		var first string
		for i := 0; i < 2; i++ {
			var out bytes.Buffer
			if _, err := run(options{workload: w, seed: 5, seconds: 2, tiny: true, workDir: t.TempDir()}, &out); err != nil {
				t.Fatal(err)
			}
			var info struct {
				OutputDigest string `json:"output_digest"`
			}
			line, _, _ := bytes.Cut(out.Bytes(), []byte("\n"))
			if err := json.Unmarshal(line, &info); err != nil {
				t.Fatal(err)
			}
			if i == 1 && info.OutputDigest != first {
				t.Errorf("%s: output digest %s, then %s", w, first, info.OutputDigest)
			}
			first = info.OutputDigest
		}
	}
}
