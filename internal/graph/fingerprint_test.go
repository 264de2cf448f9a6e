package graph

import (
	"bytes"
	"math"
	"testing"
)

func TestFingerprintDeterministic(t *testing.T) {
	b := NewBuilder(5, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 0, 0.125)
	// Build leaves the builder unchanged, so two builds are two identical
	// graphs.
	x, y := b.Build(), b.Build()
	if x.Fingerprint() != y.Fingerprint() {
		t.Fatalf("identical graphs fingerprint differently: %x vs %x", x.Fingerprint(), y.Fingerprint())
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := func(directed bool) *Builder {
		b := NewBuilder(4, directed)
		b.AddEdge(0, 1, 0.5)
		b.AddEdge(1, 2, 0.5)
		return b
	}
	fp := base(true).Build().Fingerprint()

	// Changed weight.
	w := base(true).Build()
	w.out.arcs[0].Weight = 0.75
	if w.Fingerprint() == fp {
		t.Fatal("weight change did not change fingerprint")
	}

	// Extra edge.
	e := base(true)
	e.AddEdge(2, 3, 0.5)
	if e.Build().Fingerprint() == fp {
		t.Fatal("edge addition did not change fingerprint")
	}

	// Extra isolated node.
	n := base(true)
	n.AddNode()
	if n.Build().Fingerprint() == fp {
		t.Fatal("node addition did not change fingerprint")
	}

	// Directedness flag.
	if base(false).Build().Fingerprint() == fp {
		t.Fatal("undirected graph fingerprints like the directed one")
	}

	// Empty graphs still distinguish directedness.
	if NewBuilder(0, true).Build().Fingerprint() == NewBuilder(0, false).Build().Fingerprint() {
		t.Fatal("empty directed and undirected graphs collide")
	}
}

// TestFingerprintNodeIDFolding pins the uint64(uint32(u)) fold in the
// hash stream: IDs in the supported range (< 2³²) pass through intact,
// and the test documents that IDs differing only above bit 31 WOULD
// collide — the assumption called out in the Fingerprint doc comment.
func TestFingerprintNodeIDFolding(t *testing.T) {
	for _, u := range []uint64{0, 1, 12345, 1<<31 - 1, 1<<32 - 1} {
		if uint64(uint32(u)) != u {
			t.Fatalf("ID %d inside the supported range was mangled by the fold", u)
		}
		if got, want := fnvMix(fnvOffset64, uint64(uint32(u))), fnvMix(fnvOffset64, u); got != want {
			t.Fatalf("fold changed the hash of in-range ID %d", u)
		}
	}
	// Above the fold the stream collides: 2³²+7 hashes like 7. This is
	// the documented limitation, not desired behavior — if this ever
	// starts failing, the folding was widened and the doc comment (and
	// this test) should be updated together.
	overflow := uint64(1<<32 + 7)
	if fnvMix(fnvOffset64, uint64(uint32(overflow))) != fnvMix(fnvOffset64, 7) {
		t.Fatal("expected the documented fold collision for IDs >= 2^32")
	}
}

// TestFingerprintSignedZeroWeights: weights hash by IEEE bit pattern, so
// +0 and -0 are distinct — Float64bits, not ==, decides equality.
func TestFingerprintSignedZeroWeights(t *testing.T) {
	posb := NewBuilder(2, true)
	posb.AddEdge(0, 1, 0)
	pos := posb.Build()
	negb := NewBuilder(2, true)
	negb.AddEdge(0, 1, math.Copysign(0, -1))
	neg := negb.Build()
	if pos.Fingerprint() == neg.Fingerprint() {
		t.Fatal("+0 and -0 edge weights fingerprint identically")
	}
	// Sanity: both still differ from a nonzero weight.
	b := NewBuilder(2, true)
	b.AddEdge(0, 1, 0.5)
	nz := b.Build()
	if pos.Fingerprint() == nz.Fingerprint() || neg.Fingerprint() == nz.Fingerprint() {
		t.Fatal("zero and nonzero weights collide")
	}
}

// TestFingerprintGolden pins the exact hash of a fixed graph so any
// accidental change to the canonical stream (field order, widths,
// folding) fails loudly — checkpoint compatibility and the serving
// layer's content addresses both ride on this value being stable.
func TestFingerprintGolden(t *testing.T) {
	b := NewBuilder(5, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 0, 0.125)
	g := b.Build()
	const want = uint64(0x2f417cd2d90864a2)
	if got := g.Fingerprint(); got != want {
		t.Fatalf("golden fingerprint changed: got %#016x, want %#016x", got, want)
	}
}

func TestFingerprintEdgeListRoundTrip(t *testing.T) {
	b := NewBuilder(6, true)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.0625)
	b.AddEdge(5, 0, 1)
	g := b.Build()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatalf("edge-list round trip changed fingerprint: %x vs %x",
			back.Fingerprint(), g.Fingerprint())
	}
}
