package serve

import (
	"fmt"
	"strings"
	"testing"

	"privim/internal/graph"
)

// FuzzGraphUpload drives the graph-upload decoder: it must never panic,
// and a graph it accepts must have no more nodes than its body has bytes
// and every arc endpoint in range.
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
		g, err := parseGraphUpload([]byte(body))
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
