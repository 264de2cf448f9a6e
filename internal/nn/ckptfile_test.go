package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	payload := []byte("crash-safe checkpoint payload \x00\x01\x02")

	n, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(payload)) {
		t.Fatalf("reported %d payload bytes, wrote %d", n, len(payload))
	}
	got, err := ReadFileVerified(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip mismatch: %q vs %q", got, payload)
	}
	// No temp litter after a successful write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after write, want 1", len(entries))
	}
}

func TestWriteFileAtomicReplacesPreviousOnlyOnSuccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	write := func(p []byte) {
		t.Helper()
		if _, err := WriteFileAtomic(path, func(w io.Writer) error {
			_, err := w.Write(p)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	write([]byte("generation 1"))
	write([]byte("generation 2"))
	got, err := ReadFileVerified(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "generation 2" {
		t.Fatalf("payload = %q, want generation 2", got)
	}

	// A failing payload writer must leave the previous file untouched.
	boom := errors.New("boom")
	if _, err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("half-written garbage"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write err = %v, want boom", err)
	}
	got, err = ReadFileVerified(path)
	if err != nil {
		t.Fatalf("previous good file unreadable after failed write: %v", err)
	}
	if string(got) != "generation 2" {
		t.Fatalf("failed write clobbered previous file: %q", got)
	}
}

// TestReadFileVerifiedDetectsDamage truncates and corrupts a valid file
// byte by byte and checks every variant is rejected with
// ErrCheckpointCorrupt.
func TestReadFileVerifiedDetectsDamage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.ckpt")
	payload := bytes.Repeat([]byte("privim"), 64)
	if _, err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string][]byte{
		"empty":                {},
		"shorter_than_trailer": whole[:10],
		"truncated_payload":    whole[:len(whole)/2],
		"missing_last_byte":    whole[:len(whole)-1],
		"flipped_payload_bit": func() []byte {
			d := append([]byte(nil), whole...)
			d[3] ^= 0x40
			return d
		}(),
		"flipped_trailer_length": func() []byte {
			d := append([]byte(nil), whole...)
			d[len(d)-16] ^= 0x01
			return d
		}(),
	}
	for name, data := range damage {
		p := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFileVerified(p); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: err = %v, want ErrCheckpointCorrupt", name, err)
		}
	}
}

// TestReadFileVerifiedCorpus runs the loader over the checked-in corrupt
// corpus: every *.ckpt under testdata/corrupt must be rejected with
// ErrCheckpointCorrupt, and testdata/valid.ckpt must verify.
func TestReadFileVerifiedCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "corrupt", "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("corrupt corpus has %d files, expected at least 4", len(paths))
	}
	for _, p := range paths {
		if _, err := ReadFileVerified(p); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("%s: err = %v, want ErrCheckpointCorrupt", filepath.Base(p), err)
		}
	}
	payload, err := ReadFileVerified(filepath.Join("testdata", "valid.ckpt"))
	if err != nil {
		t.Fatalf("valid.ckpt rejected: %v", err)
	}
	if !strings.Contains(string(payload), "corpus") {
		t.Fatalf("valid.ckpt payload unexpected: %q", payload)
	}
}

func testParamSet() (*ParamSet, *rand.Rand) {
	ps := NewParamSet()
	ps.Add("w1", 3, 4)
	ps.Add("b1", 1, 4)
	ps.Add("w2", 4, 2)
	rng := rand.New(rand.NewSource(11))
	ps.GlorotInit(rng)
	return ps, rng
}

func TestGradsStateRoundTrip(t *testing.T) {
	ps, rng := testParamSet()
	g := NewGrads(ps)
	for _, m := range g.Mats() {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// A second section on the same stream must stay readable: exact reads,
	// no read-ahead.
	buf.WriteString("sentinel")
	back := NewGrads(ps)
	if err := back.ReadInto(&buf); err != nil {
		t.Fatal(err)
	}
	for i, m := range g.Mats() {
		for k, v := range m.Data {
			if got := back.Mats()[i].Data[k]; got != v {
				t.Fatalf("grads[%d][%d] = %v, want %v", i, k, got, v)
			}
		}
	}
	if rest, _ := io.ReadAll(&buf); string(rest) != "sentinel" {
		t.Fatalf("ReadInto consumed beyond its section; remainder %q", rest)
	}
}

// TestAdamStateResumeBitForBit checkpoints an Adam run mid-stream and
// checks the restored optimizer continues exactly like the uninterrupted
// one.
func TestAdamStateResumeBitForBit(t *testing.T) {
	step := func(opt *Adam, ps *ParamSet, seed int64, steps int) {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrads(ps)
		for s := 0; s < steps; s++ {
			for _, m := range g.Mats() {
				for i := range m.Data {
					m.Data[i] = rng.NormFloat64()
				}
			}
			opt.Step(g)
		}
	}

	// Uninterrupted: 7 steps.
	psA, _ := testParamSet()
	optA := NewAdam(psA, 0.01)
	step(optA, psA, 42, 7)

	// Interrupted: 3 steps, checkpoint, restore into a fresh optimizer,
	// 4 more steps with the same gradient stream position.
	psB, _ := testParamSet()
	optB := NewAdam(psB, 0.01)
	rng := rand.New(rand.NewSource(42))
	g := NewGrads(psB)
	for s := 0; s < 3; s++ {
		for _, m := range g.Mats() {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		optB.Step(g)
	}
	var state bytes.Buffer
	if err := optB.StateTo(&state); err != nil {
		t.Fatal(err)
	}
	optC := NewAdam(psB, 0.01)
	if err := optC.StateFrom(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		for _, m := range g.Mats() {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		optC.Step(g)
	}

	for i, p := range psA.All() {
		q := psB.All()[i]
		for k := range p.Value.Data {
			if math.Float64bits(p.Value.Data[k]) != math.Float64bits(q.Value.Data[k]) {
				t.Fatalf("param %s[%d] diverged: %v vs %v", p.Name, k, p.Value.Data[k], q.Value.Data[k])
			}
		}
	}
}

// TestAdamStateRoundTripAndMismatch restores Adam state into a fresh
// optimizer and checks the step counter and both moments come back
// exactly, then that a foreign optimizer-kind tag or a different
// parameter layout is refused.
func TestAdamStateRoundTripAndMismatch(t *testing.T) {
	ps, rng := testParamSet()
	opt := NewAdam(ps, 0.01)
	g := NewGrads(ps)
	for s := 0; s < 2; s++ {
		for _, m := range g.Mats() {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		opt.Step(g)
	}

	var state bytes.Buffer
	if err := opt.StateTo(&state); err != nil {
		t.Fatal(err)
	}
	restored := NewAdam(ps, 0.01)
	if err := restored.StateFrom(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	if restored.t != opt.t {
		t.Fatalf("step counter %d, want %d", restored.t, opt.t)
	}
	for _, pair := range [][2]*Grads{{opt.m, restored.m}, {opt.v, restored.v}} {
		for i, m := range pair[0].Mats() {
			for k, v := range m.Data {
				if math.Float64bits(pair[1].Mats()[i].Data[k]) != math.Float64bits(v) {
					t.Fatalf("moment[%d][%d] mismatch", i, k)
				}
			}
		}
	}

	// The same state behind any other optimizer-kind tag is refused.
	foreign := binary.LittleEndian.AppendUint32(nil, 2)
	foreign = append(foreign, state.Bytes()[4:]...)
	if err := NewAdam(ps, 0.01).StateFrom(bytes.NewReader(foreign)); err == nil {
		t.Fatal("Adam restored a state stream tagged 2")
	}
	// State over a different parameter layout is refused.
	other := NewParamSet()
	other.Add("w1", 3, 4)
	if err := NewAdam(other, 0.01).StateFrom(bytes.NewReader(state.Bytes())); err == nil {
		t.Fatal("Adam restored state written over a different layout")
	}
}

// TestAppendJSONAndReplay: appended records replay in order with their
// line numbers, blank lines are skipped, a missing table is empty, and an
// append into a missing directory reports its error.
func TestAppendJSONAndReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.jsonl")
	var got []string
	if err := ReplayLines(path, func(int, []byte) { t.Fatal("missing table replayed a line") }); err != nil {
		t.Fatalf("replaying a missing table: %v", err)
	}
	if err := AppendJSON(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("{\"a\":1}\n  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendJSON(path, map[string]int{"b": 2}); err != nil {
		t.Fatal(err)
	}
	if err := ReplayLines(path, func(n int, line []byte) { got = append(got, fmt.Sprintf("%d:%s", n, line)) }); err != nil {
		t.Fatal(err)
	}
	if want := []string{`1:{"a":1}`, `3:{"b":2}`}; !slices.Equal(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
	if err := AppendJSON(filepath.Join(dir, "missing", "table.jsonl"), 1); err == nil {
		t.Fatal("append into a missing directory reported no error")
	}
}
