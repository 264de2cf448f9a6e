package gnn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"privim/internal/nn"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := tinyGraph()
	for _, kind := range AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			src, err := New(Config{Kind: kind, InputDim: 3, HiddenDim: 6, Layers: 2})
			if err != nil {
				t.Fatal(err)
			}
			src.Init(rng)
			x := tinyFeatures(g, 3, rng)
			want := score(src, g, x)

			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatal(err)
			}
			got, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cfg != src.Cfg {
				t.Fatalf("config lost: %+v vs %+v", got.Cfg, src.Cfg)
			}
			scores := score(got, g, x)
			for i := range want {
				if scores[i] != want[i] {
					t.Fatalf("score[%d]: %v != %v after reload", i, scores[i], want[i])
				}
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json\nxx")); err == nil {
		t.Fatal("expected header error")
	}
	if _, err := Load(bytes.NewBufferString(`{"Kind":"bogus","InputDim":1,"HiddenDim":1,"Layers":1}` + "\n")); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := Load(bytes.NewBufferString(`{"Kind":"gcn","InputDim":2,"HiddenDim":4,"Layers":1}` + "\n" + "truncated")); err == nil {
		t.Fatal("expected payload error")
	}
}

// unbackedHeaders name architectures that need far more weight bytes than
// follow them, the last two with weight counts that overflow an int.
var unbackedHeaders = []string{
	`{"Kind":"gcn","InputDim":4,"HiddenDim":1048576,"Layers":3}`,
	`{"Kind":"grat","InputDim":4,"HiddenDim":4096,"Layers":3,"Heads":1000000}`,
	`{"Kind":"gin","InputDim":4,"HiddenDim":4611686018427387904,"Layers":2}`,
	`{"Kind":"sage","InputDim":4,"HiddenDim":32,"Layers":9223372036854775807}`,
}

// TestLoadRefusesUnbackedHeader sends headers whose architecture needs
// far more weight bytes than follow them: Load must fail without
// allocating the model, including when the weight count overflows.
func TestLoadRefusesUnbackedHeader(t *testing.T) {
	for _, header := range unbackedHeaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(strings.NewReader(header + "\n"))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: Load accepted a header with no weights", header)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: Load allocated %d bytes before refusing (%v)", header, grew, err)
		}
	}
}

// TestWeightCountMatchesNew pins the header check's arithmetic to the
// shapes New actually registers.
func TestWeightCountMatchesNew(t *testing.T) {
	for _, kind := range AllKinds() {
		for _, layers := range []int{1, 3} {
			cfg := Config{Kind: kind, InputDim: 3, HiddenDim: 5, Layers: layers, Heads: 2}
			t.Run(fmt.Sprintf("%s/layers%d", kind, layers), func(t *testing.T) {
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := cfg.WeightCount(); err != nil || got != m.Params.NumParams() {
					t.Fatalf("WeightCount = %d, %v; New registered %d", got, err, m.Params.NumParams())
				}
			})
		}
	}
}

// checkpointWith saves a freshly initialized GRAT model after set has
// edited its parameters, and returns the checkpoint bytes.
func checkpointWith(t testing.TB, set func(params []*nn.Param)) []byte {
	t.Helper()
	m, err := New(Config{Kind: GRAT, InputDim: 3, HiddenDim: 4, Layers: 2, Heads: 2})
	if err != nil {
		t.Fatal(err)
	}
	m.Init(rand.New(rand.NewSource(5)))
	set(m.Params.All())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A NaN or ±Inf anywhere in the weights must make Load fail, naming the
// parameter: a model with a non-finite weight scores nothing usable.
func TestLoadRefusesNonFiniteWeight(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, last := range []bool{false, true} {
			var name string
			data := checkpointWith(t, func(params []*nn.Param) {
				p, i := params[0], 0
				if last {
					p = params[len(params)-1]
					i = len(p.Value.Data) - 1
				}
				p.Value.Data[i] = bad
				name = p.Name
			})
			_, err := Load(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("Load accepted %v in %s", bad, name)
			}
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("Load error %q does not name parameter %s", err, name)
			}
		}
	}
}

// FuzzLoad feeds arbitrary bytes to Load: it must never panic, and a
// checkpoint it accepts must hold only finite weights and survive a
// Save/Load round trip bit for bit.
func FuzzLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, kind := range AllKinds() {
		m, err := New(Config{Kind: kind, InputDim: 3, HiddenDim: 4, Layers: 2})
		if err != nil {
			f.Fatal(err)
		}
		m.Init(rng)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, header := range unbackedHeaders {
		f.Add([]byte(header + "\n"))
	}
	f.Add(checkpointWith(f, func(params []*nn.Param) { params[0].Value.Data[0] = math.NaN() }))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range m.Params.All() {
			for _, v := range p.Value.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Load accepted non-finite weight %v in %s", v, p.Name)
				}
			}
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded model: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("Load(Save(m)): %v", err)
		}
		if again.Cfg != m.Cfg {
			t.Fatalf("config changed in round trip: %+v vs %+v", again.Cfg, m.Cfg)
		}
		want, got := m.Params.All(), again.Params.All()
		for i := range want {
			for j, v := range want[i].Value.Data {
				if math.Float64bits(got[i].Value.Data[j]) != math.Float64bits(v) {
					t.Fatalf("%s[%d] changed in round trip: %v vs %v", want[i].Name, j, got[i].Value.Data[j], v)
				}
			}
		}
	})
}
