package dataset

import (
	"strings"
	"testing"
)

func TestLoadSNAPBasic(t *testing.T) {
	input := `# Directed graph: example
# FromNodeId	ToNodeId
1001	2002
2002	3003
1001	3003
3003	1001
`
	g, err := LoadSNAP(strings.NewReader(input), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3 (dense remap)", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	// First-appearance order: 1001->0, 2002->1, 3003->2.
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) || !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("edge remap wrong")
	}
}

func TestLoadSNAPDropsSelfLoopsAndComments(t *testing.T) {
	input := "% alt comment style\n5 5\n5 6\n\n# trailing comment\n"
	g, err := LoadSNAP(strings.NewReader(input), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("got %v, want 2 nodes 1 edge", g)
	}
	if g.Directed() {
		t.Fatal("directedness flag lost")
	}
}

func TestLoadSNAPThirdColumnIgnored(t *testing.T) {
	// Bitcoin-OTC style: SOURCE,TARGET,RATING — whitespace variant.
	input := "10 20 4\n20 30 -10\n"
	g, err := LoadSNAP(strings.NewReader(input), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if w, _ := g.Weight(0, 1); w != 1 {
		t.Fatalf("weight = %v, want placeholder 1", w)
	}
}

func TestLoadSNAPErrors(t *testing.T) {
	for _, bad := range []string{"abc def\n", "1\n", "1 xyz\n"} {
		if _, err := LoadSNAP(strings.NewReader(bad), true); err == nil {
			t.Errorf("LoadSNAP(%q): expected error", bad)
		}
	}
}

func TestFromGraph(t *testing.T) {
	g, err := LoadSNAP(strings.NewReader("0 1\n1 2\n2 0\n3 0\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	ds := FromGraph("custom", g, Options{Seed: 1, InfluenceProb: 0.5})
	if ds.Graph.NumNodes() != 4 {
		t.Fatalf("nodes = %d", ds.Graph.NumNodes())
	}
	if len(ds.Train)+len(ds.Test) != 4 {
		t.Fatalf("split sizes %d+%d", len(ds.Train), len(ds.Test))
	}
	for _, e := range ds.Graph.Edges() {
		if e.Weight != 0.5 {
			t.Fatalf("weight %v, want 0.5", e.Weight)
		}
	}
	// Weighted cascade variant.
	g2, _ := LoadSNAP(strings.NewReader("0 1\n2 1\n"), true)
	ds2 := FromGraph("custom", g2, Options{Seed: 1})
	if w, _ := ds2.Graph.Weight(0, 1); w != 0.5 {
		t.Fatalf("WC weight = %v, want 1/indegree = 0.5", w)
	}
}

// TestParseGraphCommaSeparatedSNAP: a comma-separated SNAP export parses
// to the same graph as its space-separated twin, through the decoder
// uploads, the daemon's preload and privim -graph share.
func TestParseGraphCommaSeparatedSNAP(t *testing.T) {
	spaced, err := ParseGraph([]byte("# FromNodeId ToNodeId\n10 20\n20 30 4\n30 10\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		"# FromNodeId,ToNodeId\n10,20\n20,30,4\n30,10\n",
		"10, 20\n20, 30, 4\n30, 10\n",
	} {
		commas, err := ParseGraph([]byte(body))
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if commas.Fingerprint() != spaced.Fingerprint() {
			t.Fatalf("%q parsed to %v, want the space-separated graph %v", body, commas, spaced)
		}
	}
}
