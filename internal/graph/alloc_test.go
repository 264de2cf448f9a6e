package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestParseEdgeListSteadyStateBytes pins the heap one parse of a daemon
// upload takes: a 600-node privim-edgelist of 3,600 unweighted arcs
// (≈25 KB). The scanner keeps its 1 MiB line limit but grows its buffer
// from the default 4 KiB; allocating the limit up front took 1.58 MB per
// parse. Measured with the GC off, as the other steady-state floors are.
func TestParseEdgeListSteadyStateBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var body bytes.Buffer
	body.WriteString("# privim-edgelist nodes=600 directed=1\n")
	for i := 0; i < 3600; i++ {
		fmt.Fprintf(&body, "%d %d\n", rng.Intn(600), rng.Intn(600))
	}
	parse := func() {
		if _, err := ParseEdgeList(bytes.NewReader(body.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	parse()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	perParse := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("one ParseEdgeList of %d bytes allocates %.0f bytes", body.Len(), perParse)
	if perParse > 0.7e6 {
		t.Errorf("one ParseEdgeList allocates %.0f bytes, want <= 0.7 MB", perParse)
	}
}
