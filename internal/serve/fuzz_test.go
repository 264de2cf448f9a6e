package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"privim/internal/dataset"
	"privim/internal/graph"
)

// FuzzGraphUpload drives dataset.ParseGraph, the decoder behind graph
// uploads, privimd's -graphs preload and privim -graph: it must never
// panic, and a graph it accepts must have no more nodes than its body has
// bytes and every arc endpoint in range.
func FuzzGraphUpload(f *testing.F) {
	f.Add("# privim-edgelist nodes=3 directed=1\n0 2147483648\n")
	f.Add("# privim-edgelist nodes=300000000 directed=1\n")
	var ring strings.Builder
	ring.WriteString("# privim-edgelist nodes=600 directed=1\n")
	for v := 0; v < 600; v++ {
		fmt.Fprintf(&ring, "%d %d\n", v, (v+1)%600)
	}
	f.Add(ring.String())
	f.Add("# FromNodeId\tToNodeId\n30 1000000007\n1000000007 42\n42 30\n30 30\n")
	f.Fuzz(func(t *testing.T, body string) {
		g, err := dataset.ParseGraph([]byte(body))
		if err != nil {
			return
		}
		n := g.NumNodes()
		if n > len(body) {
			t.Fatalf("accepted %d nodes from a %d-byte body", n, len(body))
		}
		for u := 0; u < n; u++ {
			for _, a := range g.Out(graph.NodeID(u)) {
				if a.To < 0 || int(a.To) >= n {
					t.Fatalf("arc %d->%d outside [0,%d)", u, a.To, n)
				}
			}
			for _, a := range g.In(graph.NodeID(u)) {
				if a.To < 0 || int(a.To) >= n {
					t.Fatalf("in-arc %d<-%d outside [0,%d)", u, a.To, n)
				}
			}
		}
	})
}

// FuzzTrainBody drives the /v1/train admission check (decode, Validate,
// model-size bound), never the job runner: it must never panic, and every
// body it admits must name a model within the upload limit.
func FuzzTrainBody(f *testing.F) {
	for _, body := range trainCrashBodies {
		f.Add(body)
	}
	f.Add(`{"graph":"g","epsilon":4,"iterations":6,"subgraph_size":8,"hidden_dim":4,"layers":2,"batch_size":4,"seed":3}`)
	const maxBytes = 64 << 20
	f.Fuzz(func(t *testing.T, body string) {
		req, err := decodeTrainRequest(strings.NewReader(body), maxBytes)
		if err != nil {
			return
		}
		weights, err := req.config().Model().WeightCount()
		if err != nil || weights > maxBytes/8 {
			t.Fatalf("admitted %q: %d weights (%v) against a %d-byte limit", body, weights, err, maxBytes)
		}
	})
}

// FuzzQueryBody posts arbitrary bytes to /v1/seeds and /v1/score on an
// in-process server holding one small graph "g" and one model "m": no
// body may panic the server or draw a 5xx, and a 200 from /v1/seeds must
// list distinct, in-range nodes.
func FuzzQueryBody(f *testing.F) {
	for _, body := range []string{
		`{"model":"m","graph":"g","k":3}`,
		`{"model":"m@1","graph":"g"}`,
		`{"model":"m","graph":"g","k":-1}`,
		`{"model":"m","graph":"g","k":9223372036854775807}`,
		`{"model":"m","graph":"g","k":1e300}`,
		`{"model":"m","graph":"g","k":2}`, // k on /v1/score
		`{"model":"nope","graph":"g","k":3}`,
		`{"model":"m@7","graph":"g"}`,
		`{"model":"m","graph":"nope"}`,
		`{"model":"m","graph":"g","k":3`,
		`{"model":`,
	} {
		f.Add(body)
	}
	s, g := newQueryServer(f)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/seeds", "/v1/score"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code >= 500 {
				t.Fatalf("POST %s %q = %d: %s", path, body, rec.Code, rec.Body)
			}
			if path != "/v1/seeds" || rec.Code != http.StatusOK {
				continue
			}
			var resp queryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("POST %s %q: decoding 200 body: %v", path, body, err)
			}
			seen := map[graph.NodeID]bool{}
			for _, v := range resp.Seeds {
				if v < 0 || int(v) >= g.NumNodes() || seen[v] {
					t.Fatalf("POST %s %q: seeds %v hold a duplicate or out-of-range node", path, body, resp.Seeds)
				}
				seen[v] = true
			}
		}
	})
}
