// Package privim is the core of the reproduction: the PrivIM framework for
// training node-level differentially private GNNs for influence
// maximization (§III), the dual-stage adaptive frequency sampling upgrade
// PrivIM* (§IV), the Gamma-distribution parameter-selection indicator
// (§IV-C), and the EGN / HP / HP-GRAT baselines used in the evaluation
// (§V-A).
package privim

import (
	"fmt"
	"math"

	"privim/internal/dataset"
	"privim/internal/gnn"
	"privim/internal/obs"
)

// Mode selects a method from the paper's competitor list.
type Mode string

// The evaluated methods. ModeNaive is "PrivIM" (Algorithm 1 sampling),
// ModeSCS adds stage 1 only, ModeDual is PrivIM* (both stages), and the
// rest are baselines.
const (
	ModeNaive      Mode = "privim"
	ModeSCS        Mode = "privim+scs"
	ModeDual       Mode = "privim*"
	ModeNonPrivate Mode = "non-private"
	ModeEGN        Mode = "egn"
	ModeHP         Mode = "hp"
	ModeHPGRAT     Mode = "hp-grat"
)

// Objective selects what the GNN is trained to optimize.
type Objective string

// Training objectives: influence maximization (the paper's task) and the
// §VI-C maximum-coverage extension — both run under the identical DP-SGD
// pipeline and privacy accounting, which is the point of the remark.
const (
	ObjectiveIM       Objective = "im"
	ObjectiveMaxCover Objective = "maxcover"
)

// Config assembles every knob of the pipeline. Zero values fall back to
// the paper's defaults (§V-A) via normalize.
type Config struct {
	Mode Mode

	// Objective picks the training loss (default ObjectiveIM).
	Objective Objective
	// CoverBudget is the per-subgraph cardinality k for ObjectiveMaxCover
	// (default SubgraphSize/4, min 1).
	CoverBudget int

	// GNNKind overrides the architecture (default: GRAT for PrivIM
	// variants and HP-GRAT, GCN for HP and EGN, per §V-A).
	GNNKind   gnn.Kind
	HiddenDim int // default 32
	Layers    int // default 3 (this is r)

	// Epsilon is the privacy budget. 0 (unset) and +Inf both mean
	// non-private — no noise — and non-private mode forces +Inf;
	// negative is a validation error (see Validate). Delta must lie in
	// [0, 1); 0 defaults to 1/|V_train|.
	Epsilon float64
	Delta   float64

	// Sampling parameters (Algorithms 1 and 3).
	SubgraphSize int     // n (default 20)
	Theta        int     // θ (default 10)
	Tau          float64 // τ (default 0.3)
	Mu           float64 // µ decay (default 1)
	SamplingRate float64 // q (default 256/|V|)
	WalkLength   int     // L (default 200)
	Threshold    int     // M (default 4)
	BESDivisor   int     // s (default 2)

	// Training parameters (Algorithm 2).
	Iterations int     // T (default 40)
	BatchSize  int     // B (default 16)
	LearnRate  float64 // η (default 0.005, the paper's setting)
	ClipBound  float64 // C (default 1)
	LossSteps  int     // j diffusion steps in the loss (default 1)
	Lambda     float64 // λ seed-mass penalty (default 0.5)
	// WeightDecay regularizes private training: the injected DP noise is
	// zero-mean, so decay pulls the parameter random walk back toward the
	// origin while the (persistent) gradient signal survives — without it,
	// noisy runs drift until every sigmoid saturates and scores tie.
	// Default 2 for private runs (decoupled decay with Adam lr keeps the
	// equilibrium weight scale near 0.5), 0 for non-private.
	WeightDecay float64

	// Workers caps the worker pool used by this run's parallel paths:
	// the per-sample gradient fan-out of Algorithm 2 and the tree
	// reduction feeding the noise accumulator. 0 means the process-wide
	// default (-workers flag, PRIVIM_WORKERS, then GOMAXPROCS); the
	// serving daemon sets it per training job so concurrent jobs do not
	// oversubscribe the machine. Results are bit-for-bit independent of
	// the value — only wall-clock changes.
	Workers int

	// CheckpointDir, when non-empty, makes Train crash-safe: every
	// CheckpointEvery iterations the full training state — parameters,
	// optimizer moments, the completed iteration count, loss history, and
	// the accounting scalars — is written atomically (temp file + checksum
	// + rename) into the directory, and on start Train resumes from the
	// newest valid checkpoint found there. A resumed run is bit-for-bit
	// identical to an uninterrupted one (same final model, seed set, and
	// EpsilonSpent) at any worker count. Checkpoints are keyed to a
	// config+graph fingerprint, so a directory holding state from a
	// different run is safely ignored. Empty (the default) disables
	// checkpointing entirely.
	CheckpointDir string
	// CheckpointEvery is the save cadence in iterations (default 10 when
	// CheckpointDir is set; ignored otherwise). The final iteration never
	// writes a checkpoint — a finished run has nothing to resume.
	CheckpointEvery int

	// Observer receives live pipeline events (spans over Modules 1–3,
	// per-iteration loss/clip/ε telemetry, extraction histograms); see
	// internal/obs for the taxonomy and sinks. nil (the default) disables
	// all instrumentation at zero per-iteration cost.
	Observer obs.Observer

	// Seed keys every random draw of the run: Train draws Module 1's
	// extraction, parameter init, and each iteration's batch picks and
	// noise from separate streams keyed by (Seed, purpose, iteration).
	Seed int64
	// InitSeed, when nonzero, keys the parameter-init stream in place of
	// Seed, so init stays fixed while the sampling/noise randomness
	// varies. Privacy audits pin it so the distinguishing attack is not
	// washed out by init variance (the DP guarantee quantifies only over
	// the mechanism's internal randomness; initialization is public).
	InitSeed int64
}

// Validate reports a field no run can use: an unknown mode or objective,
// an ε that is negative or NaN, a δ outside [0, 1), or a negative
// iteration count, checkpoint cadence, hidden width or depth. Zero
// values select defaults.
// Train runs it first; the serving daemon runs it on a train request
// before it reserves any budget.
func (c Config) Validate() error {
	switch c.Mode {
	case "", ModeNaive, ModeSCS, ModeDual, ModeNonPrivate, ModeEGN, ModeHP, ModeHPGRAT:
	default:
		return fmt.Errorf("privim: unknown mode %q", c.Mode)
	}
	switch c.Objective {
	case "", ObjectiveIM, ObjectiveMaxCover:
	default:
		return fmt.Errorf("privim: unknown objective %q", c.Objective)
	}
	switch {
	case !(c.Epsilon >= 0):
		return fmt.Errorf("privim: epsilon %v must be positive (or 0 / +Inf for non-private)", c.Epsilon)
	case !(c.Delta >= 0 && c.Delta < 1):
		return fmt.Errorf("privim: delta %v outside [0, 1) (0 picks 1/|V|)", c.Delta)
	case c.Iterations < 0:
		return fmt.Errorf("privim: iterations %d must be >= 0", c.Iterations)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("privim: checkpoint every %d must be >= 0", c.CheckpointEvery)
	case c.HiddenDim < 0 || c.Layers < 0:
		return fmt.Errorf("privim: hidden dim %d and layers %d must be >= 0", c.HiddenDim, c.Layers)
	}
	return nil
}

// Model returns the architecture Train builds for c: the mode's default
// kind (GCN for HP and EGN, GRAT otherwise, per §V-A) unless GNNKind
// overrides it, 32 hidden units and 3 layers unless set.
func (c Config) Model() gnn.Config {
	m := gnn.Config{Kind: c.GNNKind, InputDim: dataset.NumStructuralFeatures, HiddenDim: c.HiddenDim, Layers: c.Layers}
	if m.Kind == "" {
		switch c.Mode {
		case ModeEGN, ModeHP:
			m.Kind = gnn.GCN
		default:
			m.Kind = gnn.GRAT
		}
	}
	if m.HiddenDim == 0 {
		m.HiddenDim = 32
	}
	if m.Layers == 0 {
		m.Layers = 3
	}
	return m
}

// normalize validates c and fills defaults; numNodes is the
// training-graph size.
func (c Config) normalize(numNodes int) (Config, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.Mode == "" {
		c.Mode = ModeDual
	}
	m := c.Model()
	c.GNNKind, c.HiddenDim, c.Layers = m.Kind, m.HiddenDim, m.Layers
	if c.Mode == ModeNonPrivate {
		c.Epsilon = math.Inf(1)
	}
	if c.Delta == 0 {
		c.Delta = 1 / float64(numNodes+1)
	}
	if c.SubgraphSize == 0 {
		c.SubgraphSize = 20
	}
	if c.SubgraphSize > numNodes {
		c.SubgraphSize = numNodes
	}
	if c.Theta == 0 {
		c.Theta = 10
	}
	if c.Tau == 0 {
		c.Tau = 0.3
	}
	if c.Mu == 0 {
		c.Mu = 1
	}
	if c.SamplingRate == 0 {
		c.SamplingRate = 256 / float64(numNodes)
		if c.SamplingRate > 1 {
			c.SamplingRate = 1
		}
	}
	if c.WalkLength == 0 {
		c.WalkLength = 200
	}
	if c.Threshold == 0 {
		c.Threshold = 4
	}
	if c.BESDivisor == 0 {
		c.BESDivisor = 2
	}
	if c.Iterations == 0 {
		c.Iterations = 40
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.005
	}
	if c.ClipBound == 0 {
		c.ClipBound = 1
	}
	if c.LossSteps == 0 {
		c.LossSteps = 1
	}
	if c.Lambda == 0 {
		c.Lambda = 0.5
	}
	if c.WeightDecay == 0 && c.Private() {
		c.WeightDecay = 2
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.CheckpointDir != "" && c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10
	}
	if c.Objective == "" {
		c.Objective = ObjectiveIM
	}
	if c.CoverBudget == 0 {
		c.CoverBudget = c.SubgraphSize / 4
		if c.CoverBudget < 1 {
			c.CoverBudget = 1
		}
	}
	// Zero (unset) and +Inf epsilon both mean non-private.
	if c.Epsilon == 0 {
		c.Epsilon = math.Inf(1)
	}
	return c, nil
}

// Private reports whether a run of c injects DP noise and so spends
// privacy budget: a finite positive ε outside non-private mode. It gives
// the same answer before and after Train fills the defaults in (0 and
// +Inf both mean non-private), so callers decide from the request alone
// whether a run charges a budget ledger.
func (c Config) Private() bool {
	return c.Mode != ModeNonPrivate && !math.IsInf(c.Epsilon, 1) && c.Epsilon > 0
}
