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
// (≈27 KB). The tokenizer walks the body in place and presizes the edge
// slice, so a parse is the Builder and its edges; the line scanner it
// replaced took 0.41 MB in 7,221 objects, a string and a field slice per
// line. Measured with the GC off, as the other steady-state floors are.
func TestParseEdgeListSteadyStateBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var body bytes.Buffer
	body.WriteString("# privim-edgelist nodes=600 directed=1\n")
	for i := 0; i < 3600; i++ {
		fmt.Fprintf(&body, "%d %d\n", rng.Intn(600), rng.Intn(600))
	}
	parse := func() {
		if _, err := ParseEdgeList(body.Bytes(), false, true); err != nil {
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
	objects := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("one ParseEdgeList of %d bytes allocates %.0f bytes in %.0f objects", body.Len(), perParse, objects)
	if perParse > 0.1e6 || objects > 8 {
		t.Errorf("one ParseEdgeList allocates %.0f bytes in %.0f objects, want <= 0.1 MB in <= 8", perParse, objects)
	}
}
