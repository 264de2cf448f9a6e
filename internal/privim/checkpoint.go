package privim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"privim/internal/graph"
	"privim/internal/nn"
	"privim/internal/obs"
)

// Crash-safe training checkpoints. A checkpoint captures everything the
// DP-SGD loop needs to continue bit-for-bit identically to an
// uninterrupted run: model parameters, optimizer moments, the completed
// iteration count, the loss history, and the privacy-accounting scalars
// for cross-checking. The file layer (temp file + checksum trailer +
// atomic rename, nn.WriteFileAtomic) is shared with the rest of the
// repo's durable state.
//
// Resume does NOT skip Module 1: extraction and model init are
// deterministic functions of (graph, config, seed), so Train re-runs
// them. Every later draw comes from a stream keyed by (seed, purpose,
// iteration) (see Train), so the iteration count alone says where the
// run continues: no RNG position is stored. That keeps checkpoints small
// (no subgraph container on disk) and makes every restored tensor
// verifiable against a freshly computed layout.
//
// Versions 1 and 2 recorded a position in the old single training
// stream, which no longer exists; they are refused, and the run starts
// again at iteration 0.
const (
	trainCkptMagic   = "PVIMTRN1"
	trainCkptVersion = uint32(3)
	// checkpointKeep is how many recent checkpoint files a run retains;
	// older ones are pruned after each save. More than one survives so a
	// corrupted newest file still leaves a previous good checkpoint to
	// fall back to.
	checkpointKeep = 3
)

// configFingerprint hashes every config field that shapes the training
// stream, plus the training graph's content fingerprint. A checkpoint
// resumes only into a run whose fingerprint matches; anything that would
// change extraction, accounting, the batch schedule, or the noise draws
// is included. Workers is deliberately excluded (results are bit-for-bit
// width-independent, the PR 3 contract), as are Observer and the
// checkpoint knobs themselves.
func configFingerprint(cfg Config, g *graph.Graph) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v1|graph=%016x|mode=%s|obj=%s|cover=%d|gnn=%s|hid=%d|layers=%d",
		g.Fingerprint(), cfg.Mode, cfg.Objective, cfg.CoverBudget, cfg.GNNKind, cfg.HiddenDim, cfg.Layers)
	fmt.Fprintf(h, "|eps=%x|delta=%x|n=%d|theta=%d|tau=%x|mu=%x|q=%x|L=%d|M=%d|s=%d",
		math.Float64bits(cfg.Epsilon), math.Float64bits(cfg.Delta), cfg.SubgraphSize, cfg.Theta,
		math.Float64bits(cfg.Tau), math.Float64bits(cfg.Mu), math.Float64bits(cfg.SamplingRate),
		cfg.WalkLength, cfg.Threshold, cfg.BESDivisor)
	fmt.Fprintf(h, "|T=%d|B=%d|lr=%x|C=%x|j=%d|lambda=%x|wd=%x|seed=%d|initseed=%d",
		cfg.Iterations, cfg.BatchSize, math.Float64bits(cfg.LearnRate), math.Float64bits(cfg.ClipBound),
		cfg.LossSteps, math.Float64bits(cfg.Lambda), math.Float64bits(cfg.WeightDecay),
		cfg.Seed, cfg.InitSeed)
	return h.Sum64()
}

// trainState is the decoded payload of one training checkpoint.
type trainState struct {
	fingerprint uint64
	iter        int
	sigma       float64
	epsSpent    float64
	loss        []float64
	params      []byte // ParamSet.WriteTo section, restored by the caller
	opt         []byte // Adam.StateTo section
}

// ckptHead opens every checkpoint payload, whatever its version.
type ckptHead struct {
	Magic   [len(trainCkptMagic)]byte
	Version uint32
}

// ckptFixed follows the head in version 3; then come Losses loss values
// and the length-prefixed parameter and optimizer sections. Every field
// of the payload is little-endian.
type ckptFixed struct {
	Fingerprint uint64
	Iter        uint32
	Sigma, Eps  float64
	Losses      uint32
}

// encode returns st's version-3 payload, the inverse of decodeTrainState.
func (st *trainState) encode() []byte {
	var buf bytes.Buffer // binary.Write of fixed-size values into a Buffer cannot fail
	le := binary.LittleEndian
	head := ckptHead{Version: trainCkptVersion}
	copy(head.Magic[:], trainCkptMagic)
	binary.Write(&buf, le, head)
	binary.Write(&buf, le, ckptFixed{st.fingerprint, uint32(st.iter), st.sigma, st.epsSpent, uint32(len(st.loss))})
	binary.Write(&buf, le, st.loss)
	for _, section := range [][]byte{st.params, st.opt} {
		binary.Write(&buf, le, uint64(len(section)))
		buf.Write(section)
	}
	return buf.Bytes()
}

// checkpointer owns one run's checkpoint directory: atomic saves, pruned
// retention, and newest-good-first resume.
type checkpointer struct {
	dir   string
	fp    uint64
	sigma float64 // expected noise multiplier, cross-checked on resume
	eps   float64 // expected EpsilonSpent at full T
	o     obs.Observer
}

func newCheckpointer(cfg Config, g *graph.Graph, sigma, eps float64, o obs.Observer) (*checkpointer, error) {
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, fmt.Errorf("privim: checkpoint dir: %w", err)
	}
	return &checkpointer{
		dir:   cfg.CheckpointDir,
		fp:    configFingerprint(cfg, g),
		sigma: sigma,
		eps:   eps,
		o:     o,
	}, nil
}

func checkpointPath(dir string, iter int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%08d.ckpt", iter))
}

// listCheckpoints returns dir's checkpoint files sorted newest first
// (zero-padded iteration numbers make lexicographic order numeric).
func listCheckpoints(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".ckpt") {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths
}

// HasCheckpoint reports whether dir holds a checkpoint file that passes
// its integrity check — the cheap file-level screen that separates an
// interrupted run Train can resume from one it must restart. (Train
// also matches the checkpoint against the run's fingerprint on resume.)
func HasCheckpoint(dir string) bool {
	for _, path := range listCheckpoints(dir) {
		if _, err := nn.ReadFileVerified(path); err == nil {
			return true
		}
	}
	return false
}

// save writes the full training state after iter completed iterations
// and prunes old checkpoints beyond checkpointKeep.
func (c *checkpointer) save(iter int, params *nn.ParamSet, opt *nn.Adam, res *Result) error {
	start := time.Now()
	path := checkpointPath(c.dir, iter)

	var paramBuf, optBuf bytes.Buffer
	if _, err := params.WriteTo(&paramBuf); err != nil {
		return err
	}
	if err := opt.StateTo(&optBuf); err != nil {
		return err
	}
	st := trainState{fingerprint: c.fp, iter: iter, sigma: c.sigma, epsSpent: c.eps,
		loss: res.LossHistory, params: paramBuf.Bytes(), opt: optBuf.Bytes()}
	n, err := nn.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(st.encode())
		return err
	})
	if err != nil {
		return fmt.Errorf("privim: writing checkpoint %s: %w", path, err)
	}
	obs.Emit(c.o, obs.CheckpointSaved{Iter: iter, Path: path, Bytes: n, Elapsed: time.Since(start)})

	if paths := listCheckpoints(c.dir); len(paths) > checkpointKeep {
		for _, old := range paths[checkpointKeep:] {
			os.Remove(old) // best effort; a leftover is re-pruned next save
		}
	}
	return nil
}

// decodeTrainState parses a verified checkpoint payload. It refuses any
// version but trainCkptVersion with an error that names the version.
func decodeTrainState(payload []byte) (*trainState, error) {
	r := bytes.NewReader(payload)
	le := binary.LittleEndian
	var head ckptHead
	if err := binary.Read(r, le, &head); err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	if string(head.Magic[:]) != trainCkptMagic {
		return nil, fmt.Errorf("bad magic %q", head.Magic[:])
	}
	if head.Version != trainCkptVersion {
		return nil, fmt.Errorf("checkpoint version %d, want %d", head.Version, trainCkptVersion)
	}
	var fixed ckptFixed
	if err := binary.Read(r, le, &fixed); err != nil {
		return nil, err
	}
	if int(fixed.Losses) > r.Len()/8 {
		return nil, fmt.Errorf("implausible history length %d", fixed.Losses)
	}
	st := &trainState{fingerprint: fixed.Fingerprint, iter: int(fixed.Iter), sigma: fixed.Sigma,
		epsSpent: fixed.Eps, loss: make([]float64, fixed.Losses)}
	if err := binary.Read(r, le, st.loss); err != nil {
		return nil, err
	}
	for _, section := range []*[]byte{&st.params, &st.opt} {
		var n uint64
		if err := binary.Read(r, le, &n); err != nil {
			return nil, err
		}
		if n > uint64(r.Len()) {
			return nil, fmt.Errorf("section length %d exceeds remaining %d bytes", n, r.Len())
		}
		*section = make([]byte, n)
		if _, err := io.ReadFull(r, *section); err != nil {
			return nil, err
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return st, nil
}

// resume scans the checkpoint directory newest-first and restores the
// first checkpoint that verifies against this run (file integrity,
// version, config and graph fingerprint, accounting scalars). It returns
// nil when no usable checkpoint exists — a fresh start, which is always
// correct.
func (c *checkpointer) resume(cfg Config, params *nn.ParamSet, opt *nn.Adam) *trainState {
	reject := func(path, reason string) {
		obs.Emit(c.o, obs.CheckpointRejected{Path: path, Reason: reason})
	}
	for _, path := range listCheckpoints(c.dir) {
		payload, err := nn.ReadFileVerified(path)
		if err != nil {
			reject(path, err.Error())
			continue
		}
		st, err := decodeTrainState(payload)
		if err != nil {
			reject(path, err.Error())
			continue
		}
		if st.fingerprint != c.fp {
			reject(path, fmt.Sprintf("config/graph fingerprint %016x does not match run %016x", st.fingerprint, c.fp))
			continue
		}
		switch {
		case st.iter <= 0 || st.iter >= cfg.Iterations:
			reject(path, fmt.Sprintf("iteration %d outside (0, %d)", st.iter, cfg.Iterations))
			continue
		case math.Float64bits(st.sigma) != math.Float64bits(c.sigma):
			reject(path, fmt.Sprintf("noise multiplier %v does not match run's %v", st.sigma, c.sigma))
			continue
		case math.Float64bits(st.epsSpent) != math.Float64bits(c.eps):
			reject(path, fmt.Sprintf("epsilon %v does not match run's %v", st.epsSpent, c.eps))
			continue
		case len(st.loss) != st.iter:
			reject(path, fmt.Sprintf("history length %d does not match iteration %d", len(st.loss), st.iter))
			continue
		}
		if err := params.ReadInto(bytes.NewReader(st.params)); err != nil {
			reject(path, "params: "+err.Error())
			continue
		}
		if err := opt.StateFrom(bytes.NewReader(st.opt)); err != nil {
			reject(path, "optimizer: "+err.Error())
			continue
		}
		obs.Emit(c.o, obs.CheckpointResumed{Iter: st.iter, Path: path})
		return st
	}
	return nil
}
