package graph

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzReadEdgeList hardens the parser against malformed input: it must
// either return an error or a structurally consistent graph — never panic
// and never produce a graph whose round trip disagrees with itself.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# privim-edgelist nodes=3 directed=1\n0 1 0.5\n1 2 1\n")
	f.Add("0 1\n")
	f.Add("# privim-edgelist nodes=0 directed=0\n")
	f.Add("0 1 0.25\n2 0\n# comment\n\n1 2 1\n")
	f.Add("9999999 0 1\n")
	f.Add("0 1 nan\n")
	f.Add("-1 2\n")
	f.Add("# privim-edgelist nodes=abc directed=1\n")
	f.Fuzz(func(t *testing.T, input string) {
		// Guard against pathological allocation: the parser grows the node
		// set to max ID, so clamp inputs that would allocate gigabytes.
		for _, tok := range strings.Fields(input) {
			if len(tok) > 7 {
				t.Skip()
			}
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		// Structural consistency: every out-arc has a matching in-arc.
		for v := 0; v < g.NumNodes(); v++ {
			for _, a := range g.Out(NodeID(v)) {
				found := false
				for _, b := range g.In(a.To) {
					if b.To == NodeID(v) && b.Weight == a.Weight {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("arc %d->%d has no reverse-index entry", v, a.To)
				}
			}
		}
		// Round trip must parse and preserve counts.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("WriteEdgeList: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("round trip parse: %v", err)
		}
		if g2.NumNodes() < g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip: %v vs %v", g2, g)
		}
	})
}

// FuzzEdgeListMatchesScanner checks ParseEdgeList against the line scanner
// it replaced: on any ASCII input both accept or both reject, a rejection
// names the same line, and accepted inputs give the same graph.
func FuzzEdgeListMatchesScanner(f *testing.F) {
	for _, s := range []string{
		"# privim-edgelist nodes=3 directed=1\n0 1 0.5\n1 2 1\n",
		"0 +0\n",
		"-0 1 -0\n+1 -00 +.5\n",
		"0 1\r\n\r\n \t1\v2\f0x1p-2 extra columns\r\r\n2 0",
		"#privim-edgelist directed=0 nodes=4 nodes=+2\n1 0\n# privim-edgelist nodes=9 directed=1\n",
		"# privim-edgelist nodes=2147483647\n",
		"# privim-edgelist nodes=1 directed=\n2147483646 0\n",
		"0 1 nan\n",
		"0 1 1.0000001\n",
		"9223372036854775808 1\n",
		"0\n",
		"% 0 1\n",
		"0,1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if !scannable(input) {
			t.Skip()
		}
		got, err := ParseEdgeList([]byte(input), false, true)
		want, scanErr := scanEdgeList(strings.NewReader(input))
		if rejectedAlike(t, err, scanErr) {
			return
		}
		if got.n != want.n || got.directed != want.directed || len(got.edges) != len(want.edges) {
			t.Fatalf("parsed %d nodes (directed %v), %d edges; the scanner %d (directed %v), %d",
				got.n, got.directed, len(got.edges), want.n, want.directed, len(want.edges))
		}
		for i, e := range got.edges {
			if w := want.edges[i]; e.From != w.From || e.To != w.To || math.Float64bits(e.Weight) != math.Float64bits(w.Weight) {
				t.Fatalf("edge %d = %+v, the scanner read %+v", i, e, w)
			}
		}
		if got.n <= 1<<16 { // Build allocates per node
			if g, w := got.Build(), want.Build(); g.Fingerprint() != w.Fingerprint() {
				t.Fatalf("fingerprint %x, the scanner's %x", g.Fingerprint(), w.Fingerprint())
			}
		}
	})
}

// FuzzSNAPMatchesScanner checks the SNAP dialect against the line scanner
// that dataset.LoadSNAP ran, as FuzzEdgeListMatchesScanner does for the
// native dialect.
func FuzzSNAPMatchesScanner(f *testing.F) {
	for _, s := range []string{
		"# FromNodeId\tToNodeId\n1001\t2002\n2002 3003 4\n3003,1001,-10\n",
		"% comment\n5 5\n5 6\n\n",
		"0 +0\n-0 1\n",
		"-9223372036854775808 9223372036854775807\n",
		"9223372036854775808 1\n",
		",,10,,20,\r\n , 30 ,\t10\n",
		",,,\n",
		"1\n",
		"1 xyz\n",
		"1 2 not-a-number\n2 1",
	} {
		f.Add(s, true)
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, input string, directed bool) {
		if !scannable(input) {
			t.Skip()
		}
		b, err := ParseEdgeList([]byte(input), true, directed)
		want, scanErr := scanSNAP(strings.NewReader(input), directed)
		if rejectedAlike(t, err, scanErr) {
			return
		}
		got := b.Build()
		if got.NumNodes() != want.NumNodes() || got.Directed() != want.Directed() || got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("parsed %v (fingerprint %x), the scanner %v (%x)", got, got.Fingerprint(), want, want.Fingerprint())
		}
	})
}

// scannable reports whether input is ASCII and its lines fit the old
// scanner's 1 MiB limit: the inputs on which both parsers must agree.
func scannable(input string) bool {
	if len(input) >= 1<<20 {
		return false
	}
	for i := 0; i < len(input); i++ {
		if input[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

var errLine = regexp.MustCompile(`line (\d+):`)

// rejectedAlike reports whether the parser rejected its input, failing t
// unless the scanner rejected it too, naming the same line.
func rejectedAlike(t *testing.T, err, scanErr error) bool {
	t.Helper()
	if (err == nil) != (scanErr == nil) {
		t.Fatalf("parser error %v, scanner error %v", err, scanErr)
	}
	if err == nil {
		return false
	}
	got, want := errLine.FindStringSubmatch(err.Error()), errLine.FindStringSubmatch(scanErr.Error())
	if got == nil || want == nil || got[1] != want[1] {
		t.Fatalf("parser error %q, scanner error %q: not the same line", err, scanErr)
	}
	return true
}

// TestParseSplitsAtASCIISpaceOnly pins the first intended difference from
// the scanners: a non-ASCII Unicode space no longer separates or trims
// fields, so these lines, which the scanners read as "0 1", are rejected.
func TestParseSplitsAtASCIISpaceOnly(t *testing.T) {
	for _, body := range []string{"0\u00a01\n", "0 1\u2003\n", "\u30000 1\n", "0\u00851\n"} {
		if b, err := scanEdgeList(strings.NewReader(body)); err != nil || len(b.edges) != 1 {
			t.Fatalf("the scanner read %q as %+v, %v", body, b, err)
		}
		if g, err := scanSNAP(strings.NewReader(body), true); err != nil || g.NumEdges() != 1 {
			t.Fatalf("the SNAP scanner read %q as %v, %v", body, g, err)
		}
		if _, err := ParseEdgeList([]byte(body), false, true); err == nil || !strings.Contains(err.Error(), "line 1:") {
			t.Errorf("ParseEdgeList(%q) = %v, want a line 1 error", body, err)
		}
		if _, err := ParseEdgeList([]byte(body), true, true); err == nil || !strings.Contains(err.Error(), "line 1:") {
			t.Errorf("SNAP ParseEdgeList(%q) = %v, want a line 1 error", body, err)
		}
	}
}

// TestParseReadsLinesOverScannerLimit pins the second intended
// difference: a line over the scanners' 1 MiB limit is read, not refused.
func TestParseReadsLinesOverScannerLimit(t *testing.T) {
	pad := strings.Repeat(" ", 1<<20)
	for _, body := range []string{"# " + pad + "x\n0 1\n", "0" + pad + "1\n"} {
		if _, err := scanEdgeList(strings.NewReader(body)); !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("the scanner returned %v, want %v", err, bufio.ErrTooLong)
		}
		if _, err := scanSNAP(strings.NewReader(body), true); !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("the SNAP scanner returned %v, want %v", err, bufio.ErrTooLong)
		}
		if b, err := ParseEdgeList([]byte(body), false, true); err != nil || len(b.edges) != 1 || b.n != 2 {
			t.Errorf("ParseEdgeList read a %d-byte body as %v, %v; want one edge 0→1", len(body), b, err)
		}
		if b, err := ParseEdgeList([]byte(body), true, true); err != nil || len(b.edges) != 1 || b.n != 2 {
			t.Errorf("SNAP ParseEdgeList read a %d-byte body as %v, %v; want one edge 0→1", len(body), b, err)
		}
	}
}
