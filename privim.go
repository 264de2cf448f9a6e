// Package privim is a differentially private graph neural network
// framework for influence maximization, reproducing "PrivIM:
// Differentially Private Graph Neural Networks for Influence Maximization"
// (ICDE 2025) in pure Go.
//
// The package is a facade over the internal implementation; a typical
// pipeline is
//
//	ds, _ := privim.GenerateDataset(privim.LastFM, privim.DatasetOptions{Scale: 0.05, Seed: 1, InfluenceProb: 1})
//	res, _ := privim.Train(ds.TrainSubgraph().G, privim.Config{Mode: privim.ModeDual, Epsilon: 3})
//	seeds := res.SelectSeeds(ds.TestSubgraph().G, 50)
//
// which trains the PrivIM* pipeline (dual-stage adaptive frequency
// sampling + DP-SGD with the Theorem-3 Rényi accountant) under node-level
// (ε, δ)-differential privacy and selects the top-k seed nodes.
//
// Subpackage map (all re-exported here where a downstream user needs them):
//
//   - internal/graph: directed weighted graphs, θ-projection, subgraphs
//   - internal/dataset: synthetic social-network generators (Table I shapes)
//   - internal/sampling: Algorithm 1 RWR and Algorithm 3 dual-stage sampling
//   - internal/dp: Laplace/SML mechanisms, RDP accountant, σ calibration
//   - internal/gnn: GCN / GraphSAGE / GAT / GRAT / GIN over tape autodiff
//   - internal/diffusion: IC / LT / SIS cascade simulation
//   - internal/im: CELF, degree heuristics, RIS
//   - internal/privim: the trainer, baselines, and parameter indicator
//   - internal/expt: the benchmark harness reproducing every table/figure
package privim

import (
	"context"
	"io"
	"time"

	"privim/internal/audit"
	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/dp"
	"privim/internal/gnn"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/obs"
	core "privim/internal/privim"
	"privim/internal/tensor"
)

// Graph types.
type (
	// Graph is a frozen directed weighted influence graph.
	Graph = graph.Graph
	// GraphBuilder accumulates nodes and edges for one Graph.
	GraphBuilder = graph.Builder
	// NodeID indexes nodes within a Graph.
	NodeID = graph.NodeID
	// Subgraph is a node-induced subgraph with parent-ID mapping.
	Subgraph = graph.Subgraph
)

// NewGraphBuilder returns a builder for a graph with n isolated nodes;
// directed selects arc semantics. Add edges, then Build the frozen Graph.
func NewGraphBuilder(n int, directed bool) *GraphBuilder { return graph.NewBuilder(n, directed) }

// Dataset types.
type (
	// Dataset bundles a generated graph with its train/test split.
	Dataset = dataset.Dataset
	// DatasetOptions control synthetic dataset generation.
	DatasetOptions = dataset.Options
	// Preset names one of the paper's evaluation datasets.
	Preset = dataset.Preset
)

// The six Table I presets plus the Friendster surrogate.
const (
	Email      = dataset.Email
	Bitcoin    = dataset.Bitcoin
	LastFM     = dataset.LastFM
	HepPh      = dataset.HepPh
	Facebook   = dataset.Facebook
	Gowalla    = dataset.Gowalla
	Friendster = dataset.Friendster
)

// GenerateDataset builds the surrogate dataset for a preset.
func GenerateDataset(p Preset, opts DatasetOptions) (*Dataset, error) {
	return dataset.Generate(p, opts)
}

// LoadSNAP parses a real SNAP-format edge list ('#' or '%' comments, "from
// to" pairs split by spaces or commas, sparse IDs remapped densely) so the
// paper's downloaded datasets run through the same pipeline as surrogates.
func LoadSNAP(r io.Reader, directed bool) (*Graph, error) {
	return dataset.LoadSNAP(r, directed)
}

// DatasetFromGraph wraps an externally loaded graph into a Dataset with
// the paper's 50/50 split and influence weighting.
func DatasetFromGraph(name Preset, g *Graph, opts DatasetOptions) *Dataset {
	return dataset.FromGraph(name, g, opts)
}

// Core framework types.
type (
	// Config assembles every knob of the training pipeline.
	Config = core.Config
	// Mode selects a method (PrivIM*, PrivIM, baselines).
	Mode = core.Mode
	// Result is a trained model plus its privacy accounting.
	Result = core.Result
	// Indicator is the Gamma-pdf parameter-selection indicator (§IV-C).
	Indicator = core.Indicator
)

// Method modes.
const (
	ModeNaive      = core.ModeNaive
	ModeSCS        = core.ModeSCS
	ModeDual       = core.ModeDual
	ModeNonPrivate = core.ModeNonPrivate
	ModeEGN        = core.ModeEGN
	ModeHP         = core.ModeHP
	ModeHPGRAT     = core.ModeHPGRAT
)

// Objective selects the training loss.
type Objective = core.Objective

// Training objectives (§VI-C: the framework generalizes beyond IM).
const (
	ObjectiveIM       = core.ObjectiveIM
	ObjectiveMaxCover = core.ObjectiveMaxCover
)

// Train runs the configured method's full pipeline on the training graph.
// Once the noise scale is fixed, an error comes with the Result of the
// iterations that ran, whose EpsilonSpent and Charge are what the run
// released; a nil Result means it released no noise.
func Train(g *Graph, cfg Config) (*Result, error) { return core.Train(context.Background(), g, cfg) }

// TrainContext is Train under a caller context: the run's span tree
// roots under the context's span and inherits the context's trace ID
// (see ContextWithTrace), so every event is attributable to the request
// that caused it.
func TrainContext(ctx context.Context, g *Graph, cfg Config) (*Result, error) {
	return core.Train(ctx, g, cfg)
}

// TrainCanceledError is the typed error TrainContext returns, beside the
// Result of the completed iterations, when its context fires: Iter is
// the completed-iteration count of Total, and CheckpointPath the final
// checkpoint (when a checkpoint directory is configured) from which a
// rerun resumes bit-for-bit. errors.Is(err, context.Canceled) sees
// through it.
type TrainCanceledError = core.CanceledError

// DefaultIndicator returns the paper's fitted indicator parameters.
func DefaultIndicator() Indicator { return core.DefaultIndicator() }

// GNN architectures.
type GNNKind = gnn.Kind

// Supported GNN architectures (§V-E / Appendix G).
const (
	GCN       = gnn.GCN
	GraphSAGE = gnn.GraphSAGE
	GAT       = gnn.GAT
	GRAT      = gnn.GRAT
	GIN       = gnn.GIN
)

// Diffusion models.
type (
	// DiffusionModel simulates influence cascades.
	DiffusionModel = diffusion.Model
	// IC is the Independent Cascade model (Definition 6).
	IC = diffusion.IC
	// LT is the Linear Threshold model.
	LT = diffusion.LT
	// SIS is the Susceptible-Infectious-Susceptible model.
	SIS = diffusion.SIS
)

// EstimateSpread Monte-Carlo-estimates the influence spread of seeds.
func EstimateSpread(m DiffusionModel, seeds []NodeID, rounds int, seed int64) float64 {
	spread, _ := diffusion.Estimate(context.Background(), m, seeds, rounds, seed, diffusion.Options{}) // Background never cancels
	return spread
}

// EstimateSpreadContext is EstimateSpread under a caller context with
// live telemetry: a non-nil observer receives one MCBatchDone event for
// the batch, inside a diffusion.estimate span that roots under the
// context's span. Cancellation is honored between simulation chunks,
// returning a *SpreadCanceledError. A run that completes is
// bit-identical to EstimateSpread at any worker count.
func EstimateSpreadContext(ctx context.Context, m DiffusionModel, seeds []NodeID, rounds int, seed int64, o Observer) (float64, error) {
	return diffusion.Estimate(ctx, m, seeds, rounds, seed, diffusion.Options{Obs: o})
}

// SpreadCanceledError reports a spread estimation stopped early, with
// how many Monte-Carlo rounds had completed.
type SpreadCanceledError = diffusion.CanceledError

// SelectCanceledError reports a seed-selection solve (CELF, RIS, IMM
// SelectContext) stopped early; Seeds holds the valid greedy
// prefix selected so far, nil when cancellation hit before the first
// pick.
type SelectCanceledError = im.CanceledError

// Observability. Set Config.Observer to watch a run live: spans over
// Modules 1–3, per-iteration loss/clip/ε telemetry, extraction and
// Monte-Carlo histograms. See the README's Observability section.
type (
	// Observer consumes typed pipeline events; nil disables all
	// instrumentation at zero cost.
	Observer = obs.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = obs.ObserverFunc
	// Event is one typed pipeline occurrence.
	Event = obs.Event
	// SpanStart / SpanEnd delimit timed pipeline sections; SpanSlow flags
	// a span exceeding the slow-span watchdog threshold.
	SpanStart = obs.SpanStart
	SpanEnd   = obs.SpanEnd
	SpanSlow  = obs.SpanSlow
	// IterationEnd reports one DP-SGD iteration (loss, grad norm, clip
	// fraction, ε spent so far).
	IterationEnd = obs.IterationEnd
	// MCBatchDone reports one Monte-Carlo spread-estimation batch.
	MCBatchDone = obs.MCBatchDone
	// SeedSelected reports one greedy/CELF seed pick.
	SeedSelected = obs.SeedSelected
	// ExtractionDone summarizes one subgraph-extraction stage.
	ExtractionDone = obs.ExtractionDone
	// CheckpointSaved / CheckpointResumed / CheckpointRejected report the
	// crash-safe training checkpoint lifecycle (see the README's
	// Durability section).
	CheckpointSaved    = obs.CheckpointSaved
	CheckpointResumed  = obs.CheckpointResumed
	CheckpointRejected = obs.CheckpointRejected
	// Canceled reports a phase stopped by context cancellation, with how
	// much work was done and the fire-to-stop latency.
	Canceled = obs.Canceled
	// JSONLSink journals events as JSON lines.
	JSONLSink = obs.JSONLSink
	// MetricsRegistry aggregates events into named counters, gauges, and
	// histograms and can publish itself via expvar.
	MetricsRegistry = obs.Registry
)

// NewJSONLSink returns an Observer that appends one JSON line per event
// to w; call Flush before reading the journal.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// DecodeJournalRecord parses one journal line back into its typed event
// (a pointer to one of the event structs) and the emission timestamp.
func DecodeJournalRecord(line []byte) (Event, time.Time, error) {
	return obs.DecodeRecord(line)
}

// NewMetricsRegistry returns an empty live-metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MultiObserver fans events out to every non-nil observer (nil when none
// remain, so the result stays free to ignore).
func MultiObserver(os ...Observer) Observer { return obs.Multi(os...) }

// DebugServer is a running expvar/pprof debug endpoint with a shutdown
// handle (Addr, Shutdown, Close).
type DebugServer = obs.DebugServer

// StartDebugServer serves expvar (/debug/vars) and pprof (/debug/pprof/)
// on addr in the background, returning the live server handle; call
// Shutdown (graceful) or Close (immediate) when done with it. To also
// expose a registry in Prometheus text format at /metrics/prom, call
// obs.StartDebugServer directly with the registry.
func StartDebugServer(addr string) (*DebugServer, error) { return obs.StartDebugServer(addr, nil) }

// Trace context. A trace ID ties every span and journal record produced
// by one request/run/job together; the serving daemon mints one per HTTP
// request (echoed in the X-Privim-Trace header) and the CLIs mint one
// per run.

// NewTraceID mints a fresh random trace ID.
func NewTraceID() string { return obs.NewTraceID() }

// ContextWithTrace returns ctx carrying a trace ID for TrainContext and
// the other context-aware entry points.
func ContextWithTrace(ctx context.Context, id string) context.Context {
	return obs.ContextWithTrace(ctx, id)
}

// TraceFromContext extracts the context's trace ID ("" when absent).
func TraceFromContext(ctx context.Context) string { return obs.TraceFromContext(ctx) }

// WriteChromeTrace converts a JSONL run journal into Chrome trace-event
// JSON (Perfetto / chrome://tracing); traceFilter keeps only one trace
// ID ("" converts everything). The tracecat command wraps this.
func WriteChromeTrace(journal io.Reader, w io.Writer, traceFilter string) error {
	return obs.WriteChromeTrace(journal, w, traceFilter)
}

// Classical IM solvers.
type (
	// CELF is the lazy-greedy ground-truth solver.
	CELF = im.CELF
	// DegreeSolver is the top-degree heuristic.
	DegreeSolver = im.Degree
	// RIS is the reverse-influence-sampling baseline.
	RIS = im.RIS
)

// CoverageRatio is the paper's |V_method| / |V_CELF| metric in percent.
func CoverageRatio(methodSpread, celfSpread float64) float64 {
	return im.CoverageRatio(methodSpread, celfSpread)
}

// TopKScores selects the k highest-scoring nodes from a score vector.
func TopKScores(scores []float64, k int) []NodeID { return im.TopKScores(scores, k) }

// Privacy accounting.
type (
	// Accountant is the Theorem 3 Rényi-DP accountant.
	Accountant = dp.Accountant
)

// CalibrateSigma finds the smallest noise multiplier meeting an (ε, δ)
// target for T iterations of Algorithm 2.
func CalibrateSigma(targetEps, delta float64, t, b, m, ng int) (float64, error) {
	return dp.CalibrateSigma(targetEps, delta, t, b, m, ng)
}

// IMM is the martingale-based sampling solver (Tang et al., SIGMOD 2015).
type IMM = im.IMM

// StaticGreedy is the snapshot (live-edge worlds + SCC reachability)
// solver.
type StaticGreedy = im.StaticGreedy

// NoisyGreedy is the Example-2 strawman: Laplace-noised greedy whose
// network-scale sensitivity destroys utility — kept for demonstrations.
type NoisyGreedy = im.NoisyGreedy

// DegreeDiscount is the overlap-correcting degree heuristic.
type DegreeDiscount = im.DegreeDiscount

// Privacy auditing.
type (
	// AuditConfig configures the DP distinguishing game.
	AuditConfig = audit.Config
	// AuditReport is the game's outcome: attacker accuracy and the
	// Clopper-Pearson empirical ε lower bound.
	AuditReport = audit.Report
)

// Audit plays the node-level DP distinguishing game against a training
// pipeline and reports the empirical leakage bounds.
func Audit(g *Graph, cfg AuditConfig) (*AuditReport, error) { return audit.Run(g, cfg) }

// GNN model persistence.

// Model is a trained GNN; obtain one from Result.Model or LoadModel and
// persist it with Result.SaveModel / Model.Save.
type Model = gnn.Model

// LoadModel reads a checkpoint written by Result.SaveModel (or
// Model.Save).
func LoadModel(r io.Reader) (*Model, error) { return gnn.Load(r) }

// ScoreModel runs a (possibly checkpoint-loaded) model over g with the
// standard structural features, returning per-node seed probabilities —
// the same scoring path Result.Scores uses, available without a Result.
func ScoreModel(m *Model, g *Graph) []float64 {
	x := tensor.FromSlice(g.NumNodes(), dataset.NumStructuralFeatures, dataset.StructuralFeatures(g))
	scores, _ := m.Score(context.Background(), g, x) // Background never cancels
	return scores
}

// Graph metrics (Table I style structural summaries).

// ClusteringCoefficient returns the average local clustering coefficient.
func ClusteringCoefficient(g *Graph) float64 { return graph.ClusteringCoefficient(g) }

// KCore returns each node's core number.
func KCore(g *Graph) []int { return graph.KCore(g) }

// Combinatorial-optimization extensions (§VI-C).

// GreedyMaxCover is the (1−1/e) greedy max-coverage reference.
func GreedyMaxCover(g *Graph, k int) []NodeID { return gnn.GreedyMaxCover(g, k) }

// CoverageValue evaluates a chosen set's coverage.
func CoverageValue(g *Graph, chosen []NodeID) int { return gnn.CoverageValue(g, chosen) }
