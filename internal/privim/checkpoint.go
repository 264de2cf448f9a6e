package privim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
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
// uninterrupted run: model parameters, optimizer moments, the RNG stream
// position (so batch picks and noise draws line up), the loss history,
// and the privacy-accounting scalars for cross-checking. The file layer
// (temp file + checksum trailer + atomic rename, nn.WriteFileAtomic) is
// shared with the rest of the repo's durable state.
//
// Resume does NOT skip Module 1: extraction and model init are
// deterministic functions of (graph, config, seed), so Train re-runs
// them, then fast-forwards the RNG from its post-init position to the
// checkpointed draw count. That keeps checkpoints small (no subgraph
// container on disk) and makes every restored tensor verifiable against
// a freshly computed layout.
//
// Version 1 carried a second loss history (the batch re-evaluated after
// the noisy update); decoding still reads and drops it.
const (
	trainCkptMagic   = "PVIMTRN1"
	trainCkptVersion = uint32(2)
	// checkpointKeep is how many recent checkpoint files a run retains;
	// older ones are pruned after each save. More than one survives so a
	// corrupted newest file still leaves a previous good checkpoint to
	// fall back to.
	checkpointKeep = 3
)

// countingSource wraps math/rand's Source64 and counts every draw, so
// the stream position can be persisted as a single integer and replayed
// with Skip. Both Int63 and Uint64 advance the underlying generator by
// exactly one state step, so the count is method-agnostic.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	// math/rand's NewSource has implemented Source64 since Go 1.8; the
	// assertion keeps rand.Rand on the same Uint64 fast path it uses over
	// the unwrapped source, so wrapping does not change the stream.
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed satisfies rand.Source; the training loop never reseeds.
func (c *countingSource) Seed(seed int64) {
	c.src = rand.NewSource(seed).(rand.Source64)
	c.draws = 0
}

// Draws returns the number of values drawn since seeding.
func (c *countingSource) Draws() uint64 { return c.draws }

// Skip advances the stream by n draws without handing the values out —
// the resume fast-forward. It is cheap (one generator step per draw)
// next to the forward/backward passes those draws originally drove.
func (c *countingSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.draws += n
}

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
	rngDraws    uint64
	sigma       float64
	epsSpent    float64
	loss        []float64
	params      []byte // ParamSet.WriteTo section, restored by the caller
	opt         []byte // Adam.StateTo section
}

// checkpointer owns one run's checkpoint directory: atomic saves, pruned
// retention, and newest-good-first resume.
type checkpointer struct {
	dir   string
	every int
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
		every: cfg.CheckpointEvery,
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
func (c *checkpointer) save(iter int, draws uint64, params *nn.ParamSet, opt *nn.Adam, res *Result) error {
	start := time.Now()
	path := checkpointPath(c.dir, iter)

	var paramBuf, optBuf bytes.Buffer
	if _, err := params.WriteTo(&paramBuf); err != nil {
		return err
	}
	if err := opt.StateTo(&optBuf); err != nil {
		return err
	}

	n, err := nn.WriteFileAtomic(path, func(w io.Writer) error {
		le := binary.LittleEndian
		if _, err := w.Write([]byte(trainCkptMagic)); err != nil {
			return err
		}
		if err := binary.Write(w, le, trainCkptVersion); err != nil {
			return err
		}
		if err := binary.Write(w, le, c.fp); err != nil {
			return err
		}
		if err := binary.Write(w, le, uint32(iter)); err != nil {
			return err
		}
		if err := binary.Write(w, le, draws); err != nil {
			return err
		}
		if err := binary.Write(w, le, math.Float64bits(c.sigma)); err != nil {
			return err
		}
		if err := binary.Write(w, le, math.Float64bits(c.eps)); err != nil {
			return err
		}
		if err := binary.Write(w, le, uint32(len(res.LossHistory))); err != nil {
			return err
		}
		for _, v := range res.LossHistory {
			if err := binary.Write(w, le, math.Float64bits(v)); err != nil {
				return err
			}
		}
		for _, section := range [][]byte{paramBuf.Bytes(), optBuf.Bytes()} {
			if err := binary.Write(w, le, uint64(len(section))); err != nil {
				return err
			}
			if _, err := w.Write(section); err != nil {
				return err
			}
		}
		return nil
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

// decode parses a verified checkpoint payload.
func decodeTrainState(payload []byte) (*trainState, error) {
	r := bytes.NewReader(payload)
	le := binary.LittleEndian
	magic := make([]byte, len(trainCkptMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(magic) != trainCkptMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(r, le, &version); err != nil {
		return nil, err
	}
	if version != 1 && version != trainCkptVersion {
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	st := &trainState{}
	var fp uint64
	if err := binary.Read(r, le, &fp); err != nil {
		return nil, err
	}
	var iter uint32
	if err := binary.Read(r, le, &iter); err != nil {
		return nil, err
	}
	st.iter = int(iter)
	if err := binary.Read(r, le, &st.rngDraws); err != nil {
		return nil, err
	}
	var sigmaBits, epsBits uint64
	if err := binary.Read(r, le, &sigmaBits); err != nil {
		return nil, err
	}
	if err := binary.Read(r, le, &epsBits); err != nil {
		return nil, err
	}
	st.sigma = math.Float64frombits(sigmaBits)
	st.epsSpent = math.Float64frombits(epsBits)
	st.fingerprint = fp
	hists := []*[]float64{&st.loss}
	if version == 1 {
		hists = append(hists, new([]float64)) // the dropped post-update history
	}
	for _, hist := range hists {
		var n uint32
		if err := binary.Read(r, le, &n); err != nil {
			return nil, err
		}
		if int(n) > len(payload)/8 {
			return nil, fmt.Errorf("implausible history length %d", n)
		}
		vs := make([]float64, n)
		for i := range vs {
			var bits uint64
			if err := binary.Read(r, le, &bits); err != nil {
				return nil, err
			}
			vs[i] = math.Float64frombits(bits)
		}
		*hist = vs
	}
	for _, section := range []*[]byte{&st.params, &st.opt} {
		var n uint64
		if err := binary.Read(r, le, &n); err != nil {
			return nil, err
		}
		if n > uint64(r.Len()) {
			return nil, fmt.Errorf("section length %d exceeds remaining %d bytes", n, r.Len())
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		*section = b
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes", r.Len())
	}
	return st, nil
}

// resume scans the checkpoint directory newest-first, restores the first
// checkpoint that verifies against this run (file integrity, config and
// graph fingerprint, accounting scalars, RNG position not behind the
// post-init stream), and fast-forwards the RNG. It returns nil when no
// usable checkpoint exists — a fresh start, which is always correct.
func (c *checkpointer) resume(cfg Config, params *nn.ParamSet, opt *nn.Adam, src *countingSource) *trainState {
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
		case st.rngDraws < src.Draws():
			reject(path, fmt.Sprintf("RNG position %d behind post-init position %d", st.rngDraws, src.Draws()))
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
		src.Skip(st.rngDraws - src.Draws())
		obs.Emit(c.o, obs.CheckpointResumed{Iter: st.iter, Path: path, RNGDraws: st.rngDraws})
		return st
	}
	return nil
}
