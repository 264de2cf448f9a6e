package gnn

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
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
			want := src.Score(g, x)

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
			scores := got.Score(g, x)
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

// TestLoadRefusesUnbackedHeader sends headers whose architecture needs
// far more weight bytes than follow them: Load must fail without
// allocating the model, including when the weight count overflows.
func TestLoadRefusesUnbackedHeader(t *testing.T) {
	for _, header := range []string{
		`{"Kind":"gcn","InputDim":4,"HiddenDim":1048576,"Layers":3}`,
		`{"Kind":"grat","InputDim":4,"HiddenDim":4096,"Layers":3,"Heads":1000000}`,
		`{"Kind":"gin","InputDim":4,"HiddenDim":4611686018427387904,"Layers":2}`,
		`{"Kind":"sage","InputDim":4,"HiddenDim":32,"Layers":9223372036854775807}`,
	} {
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
				if got, ok := m.Cfg.weightCount(); !ok || got != m.Params.NumParams() {
					t.Fatalf("weightCount = %d, %v; New registered %d", got, ok, m.Params.NumParams())
				}
			})
		}
	}
}
