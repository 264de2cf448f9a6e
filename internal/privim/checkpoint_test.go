package privim

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"privim/internal/graph"
	"privim/internal/nn"
	"privim/internal/obs"
)

// crashPanic is the sentinel a simulated crash unwinds with.
type crashPanic struct{ iter int }

// crashObserver panics out of Train when iteration `at` completes — an
// in-process stand-in for kill -9 mid-train: the iterations already
// checkpointed are on disk, everything after is lost.
func crashObserver(at int) obs.Observer {
	return obs.ObserverFunc(func(e obs.Event) {
		if ie, ok := e.(obs.IterationEnd); ok && ie.Iter == at {
			panic(crashPanic{iter: at})
		}
	})
}

// trainExpectCrash runs Train and requires it to die at the simulated
// crash point.
func trainExpectCrash(t testing.TB, g *graph.Graph, cfg Config) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("training survived the injected crash")
		}
		if _, ok := r.(crashPanic); !ok {
			panic(r) // a real failure, not our sentinel
		}
	}()
	_, err := Train(context.Background(), g, cfg)
	t.Fatalf("Train returned (%v) instead of crashing", err)
}

// eventTrap records every event, concurrency-safe.
type eventTrap struct {
	mu     sync.Mutex
	events []obs.Event
}

func (tr *eventTrap) Emit(e obs.Event) {
	tr.mu.Lock()
	tr.events = append(tr.events, e)
	tr.mu.Unlock()
}

func (tr *eventTrap) count(kind string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, e := range tr.events {
		if e.EventKind() == kind {
			n++
		}
	}
	return n
}

func paramBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := res.Model.Params.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func floatsEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameRun asserts the resumed result is bit-for-bit the baseline:
// parameters, privacy spend, loss history, and the seed set they induce.
func requireSameRun(t *testing.T, g *graph.Graph, want, got *Result) {
	t.Helper()
	if !bytes.Equal(paramBytes(t, want), paramBytes(t, got)) {
		t.Fatal("final parameters differ from uninterrupted run")
	}
	if math.Float64bits(want.EpsilonSpent) != math.Float64bits(got.EpsilonSpent) {
		t.Fatalf("EpsilonSpent differs: %v vs %v", want.EpsilonSpent, got.EpsilonSpent)
	}
	if !floatsEqualBits(want.LossHistory, got.LossHistory) {
		t.Fatalf("LossHistory differs:\nwant %v\ngot  %v", want.LossHistory, got.LossHistory)
	}
	ws, gs := want.SelectSeeds(g, 5), got.SelectSeeds(g, 5)
	for i := range ws {
		if ws[i] != gs[i] {
			t.Fatalf("selected seeds differ: %v vs %v", ws, gs)
		}
	}
}

func checkpointFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

// TestTrainResumeBitForBit is the tentpole guarantee: a run killed
// mid-train and resumed from its last checkpoint — at a different worker
// count — produces the identical final model, seed set, ε spend, and
// loss history as a run that never stopped. Exercised across the
// Gaussian (privim*), SML-noise (hp), and noiseless training paths.
func TestTrainResumeBitForBit(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	for _, mode := range []Mode{ModeDual, ModeHP, ModeNonPrivate} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			base := quickConfig(mode)
			base.Workers = 1
			baseline, err := Train(context.Background(), train, base)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			crashed := base
			crashed.Workers = 3
			crashed.CheckpointDir = dir
			crashed.CheckpointEvery = 2
			crashed.Observer = crashObserver(3) // dies after iteration 3; last checkpoint is iter 2
			trainExpectCrash(t, train, crashed)
			if files := checkpointFiles(t, dir); len(files) == 0 {
				t.Fatal("crash left no checkpoints behind")
			}

			trap := &eventTrap{}
			resumed := crashed
			resumed.Workers = 2
			resumed.Observer = trap
			got, err := Train(context.Background(), train, resumed)
			if err != nil {
				t.Fatal(err)
			}
			if n := trap.count("checkpoint_resumed"); n != 1 {
				t.Fatalf("expected exactly one resume event, got %d", n)
			}
			if n := trap.count("iteration_end"); n != base.Iterations-2 {
				t.Fatalf("resumed run re-ran %d iterations, want %d", n, base.Iterations-2)
			}
			requireSameRun(t, train, baseline, got)
		})
	}
}

// oldCheckpointPayload lays st out in the version-1 or version-2 layout.
// Both stored a position in the old single training stream, draws, after
// the iteration; version 1 also carried a second loss history after the
// first.
func oldCheckpointPayload(st *trainState, version uint32, draws uint64) []byte {
	var buf bytes.Buffer // binary.Write into a Buffer cannot fail
	le := binary.LittleEndian
	buf.WriteString(trainCkptMagic)
	for _, v := range []any{version, st.fingerprint, uint32(st.iter), draws,
		math.Float64bits(st.sigma), math.Float64bits(st.epsSpent)} {
		binary.Write(&buf, le, v)
	}
	hists := [][]float64{st.loss}
	if version == 1 {
		hists = append(hists, st.loss)
	}
	for _, hist := range hists {
		binary.Write(&buf, le, uint32(len(hist)))
		binary.Write(&buf, le, hist)
	}
	for _, section := range [][]byte{st.params, st.opt} {
		binary.Write(&buf, le, uint64(len(section)))
		buf.Write(section)
	}
	return buf.Bytes()
}

// crashedCheckpoint runs cfg into a simulated crash after iteration 3
// with a checkpoint every 2 iterations and returns the one checkpoint
// file left behind, at iteration 2, with its decoded state.
func crashedCheckpoint(tb testing.TB, g *graph.Graph, cfg Config) (string, *trainState) {
	tb.Helper()
	cfg.CheckpointEvery = 2
	cfg.Observer = crashObserver(3)
	trainExpectCrash(tb, g, cfg)
	paths := listCheckpoints(cfg.CheckpointDir)
	if len(paths) != 1 {
		tb.Fatalf("expected one checkpoint, got %v", paths)
	}
	payload, err := nn.ReadFileVerified(paths[0])
	if err != nil {
		tb.Fatal(err)
	}
	st, err := decodeTrainState(payload)
	if err != nil {
		tb.Fatal(err)
	}
	return paths[0], st
}

// TestTrainRefusesOldCheckpointVersions: a checkpoint in the version-1 or
// version-2 layout, which positioned the old single training stream, is
// refused with a reason that names its version, and the run starts again
// at iteration 0 and ends in the uninterrupted run's weights, loss
// history and ε, bit for bit.
func TestTrainRefusesOldCheckpointVersions(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	base := quickConfig(ModeDual)
	baseline, err := Train(context.Background(), train, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint32{1, 2} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			cfg := base
			cfg.CheckpointDir = t.TempDir()
			path, st := crashedCheckpoint(t, train, cfg)
			old := oldCheckpointPayload(st, version, 1000)
			if _, err := nn.WriteFileAtomic(path, func(w io.Writer) error {
				_, err := w.Write(old)
				return err
			}); err != nil {
				t.Fatal(err)
			}

			trap := &eventTrap{}
			cfg.Observer = trap
			got, err := Train(context.Background(), train, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if n := trap.count("checkpoint_resumed"); n != 0 {
				t.Fatalf("resumed %d times from a version-%d checkpoint", n, version)
			}
			var reasons []string
			for _, e := range trap.events {
				if rej, ok := e.(obs.CheckpointRejected); ok {
					reasons = append(reasons, rej.Reason)
				}
			}
			if want := fmt.Sprintf("version %d", version); len(reasons) != 1 || !strings.Contains(reasons[0], want) {
				t.Fatalf("rejections %q, want one naming %q", reasons, want)
			}
			if n := trap.count("iteration_end"); n != base.Iterations {
				t.Fatalf("rerun ran %d iterations, want all %d", n, base.Iterations)
			}
			requireSameRun(t, train, baseline, got)
		})
	}
}

// FuzzTrainCheckpoint: decodeTrainState never panics on arbitrary bytes,
// and every payload it accepts encodes back to the same bytes. The corpus
// holds a real version-3 payload and its version-1 and version-2
// layouts, which must be refused.
func FuzzTrainCheckpoint(f *testing.F) {
	cfg := quickConfig(ModeDual)
	cfg.CheckpointDir = f.TempDir()
	_, st := crashedCheckpoint(f, quickDataset(f).TrainSubgraph().G, cfg)
	f.Add(st.encode())
	for _, version := range []uint32{1, 2} {
		old := oldCheckpointPayload(st, version, 1000)
		if _, err := decodeTrainState(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
			f.Fatalf("version-%d payload: err = %v, want a refusal naming the version", version, err)
		}
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := decodeTrainState(payload)
		if err != nil {
			return
		}
		if got := st.encode(); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", got, payload)
		}
	})
}

// TestTrainResumeFallsBackPastCorruptCheckpoints: when the newest
// checkpoint is truncated (torn write) and the next is bit-flipped, the
// loader rejects both and resumes from the surviving older file — and
// the run still matches the uninterrupted baseline exactly.
func TestTrainResumeFallsBackPastCorruptCheckpoints(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	base := quickConfig(ModeDual)
	baseline, err := Train(context.Background(), train, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	crashed := base
	crashed.CheckpointDir = dir
	crashed.CheckpointEvery = 1
	crashed.Observer = crashObserver(3) // checkpoints at 1, 2, 3
	trainExpectCrash(t, train, crashed)
	files := checkpointFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("expected 3 checkpoints, got %v", files)
	}

	// Torn write: newest file loses its tail.
	info, err := os.Stat(files[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[2], info.Size()-7); err != nil {
		t.Fatal(err)
	}
	// Bit rot: second-newest gets one payload byte flipped.
	blob, err := os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x10
	if err := os.WriteFile(files[1], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	trap := &eventTrap{}
	resumed := crashed
	resumed.Observer = trap
	got, err := Train(context.Background(), train, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if n := trap.count("checkpoint_rejected"); n != 2 {
		t.Fatalf("expected 2 rejected checkpoints, got %d", n)
	}
	if n := trap.count("checkpoint_resumed"); n != 1 {
		t.Fatalf("expected a resume from the surviving checkpoint, got %d resumes", n)
	}
	requireSameRun(t, train, baseline, got)

	// All checkpoints destroyed → fresh start, still the same run.
	for _, f := range checkpointFiles(t, dir) {
		if err := os.Truncate(f, 3); err != nil {
			t.Fatal(err)
		}
	}
	trap2 := &eventTrap{}
	resumed.Observer = trap2
	got2, err := Train(context.Background(), train, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if n := trap2.count("checkpoint_resumed"); n != 0 {
		t.Fatal("resumed from a destroyed checkpoint")
	}
	requireSameRun(t, train, baseline, got2)
}

// TestTrainResumeRejectsForeignCheckpoints: a checkpoint directory left
// over from a different run (different seed → different fingerprint)
// must be ignored, not resumed into the wrong stream.
func TestTrainResumeRejectsForeignCheckpoints(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	dir := t.TempDir()

	other := quickConfig(ModeDual)
	other.Seed = 1234
	other.CheckpointDir = dir
	other.CheckpointEvery = 2
	if _, err := Train(context.Background(), train, other); err != nil {
		t.Fatal(err)
	}
	if len(checkpointFiles(t, dir)) == 0 {
		t.Fatal("expected leftover checkpoints from the other run")
	}

	base := quickConfig(ModeDual)
	baseline, err := Train(context.Background(), train, base)
	if err != nil {
		t.Fatal(err)
	}
	trap := &eventTrap{}
	cfg := base
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 2
	cfg.Observer = trap
	got, err := Train(context.Background(), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := trap.count("checkpoint_resumed"); n != 0 {
		t.Fatal("resumed from a foreign run's checkpoint")
	}
	if trap.count("checkpoint_rejected") == 0 {
		t.Fatal("foreign checkpoints were not reported as rejected")
	}
	requireSameRun(t, train, baseline, got)
}

// TestCheckpointRetention: a long enough run keeps only the most recent
// checkpointKeep files.
func TestCheckpointRetention(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	dir := t.TempDir()
	cfg := quickConfig(ModeDual)
	cfg.Iterations = 8
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	trap := &eventTrap{}
	cfg.Observer = trap
	if _, err := Train(context.Background(), train, cfg); err != nil {
		t.Fatal(err)
	}
	if n := trap.count("checkpoint_saved"); n != 7 {
		t.Fatalf("expected 7 saves (every iteration but the last), got %d", n)
	}
	files := checkpointFiles(t, dir)
	if len(files) != checkpointKeep {
		t.Fatalf("retention kept %d files (%v), want %d", len(files), files, checkpointKeep)
	}
	if filepath.Base(files[len(files)-1]) != "ckpt-00000007.ckpt" {
		t.Fatalf("newest retained checkpoint is %s, want iter 7", files[len(files)-1])
	}
}

// TestTrainCheckpointWriteErrorReturnsPartialResult: a checkpoint save
// that fails mid-training stops the run with the write error and the
// Result of the iterations whose noise was already released, so a budget
// ledger can charge them. A non-empty directory under the checkpoint's
// name makes the rename fail even for root.
func TestTrainCheckpointWriteErrorReturnsPartialResult(t *testing.T) {
	ds := quickDataset(t)
	train := ds.TrainSubgraph().G
	dir := t.TempDir()
	blocker := checkpointPath(dir, 10)
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(ModeDual)
	cfg.Iterations = 12
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 10
	res, err := Train(context.Background(), train, cfg)
	if err == nil {
		t.Fatal("Train succeeded although the checkpoint after iteration 10 could not be written")
	}
	if res == nil {
		t.Fatalf("Train returned %v without the Result of the 10 iterations it ran", err)
	}
	if got := len(res.LossHistory); got != 10 {
		t.Fatalf("LossHistory has %d entries, want 10", got)
	}
	c := res.Charge()
	if want := c.Acct.Epsilon(10, res.Config.Delta); math.Float64bits(res.EpsilonSpent) != math.Float64bits(want) {
		t.Fatalf("EpsilonSpent = %v, want the 10-iteration spend %v", res.EpsilonSpent, want)
	}
	if c.Iterations != 10 || math.Float64bits(c.Epsilon) != math.Float64bits(res.EpsilonSpent) {
		t.Fatalf("Charge = %+v, want the 10 iterations at ε %v", c, res.EpsilonSpent)
	}
}
