package serve

import (
	"fmt"
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
