package privim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"privim/internal/autodiff"
	"privim/internal/dataset"
	"privim/internal/dp"
	"privim/internal/gnn"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/ledger"
	"privim/internal/nn"
	"privim/internal/obs"
	"privim/internal/parallel"
	"privim/internal/sampling"
	"privim/internal/tensor"
)

// Result bundles a trained model with the privacy accounting and timing
// data the evaluation reports.
type Result struct {
	Config Config
	Model  *gnn.Model

	// Sigma is the calibrated noise multiplier (0 for non-private).
	Sigma float64
	// NoiseScale is the absolute per-coordinate noise std σ·Δ_g.
	NoiseScale float64
	// EpsilonSpent is the accountant's (ε, δ) guarantee for the
	// iterations LossHistory records: the full run's when training
	// completes, the completed iterations' when it stops early.
	// Non-private runs report 0 with Private=false.
	EpsilonSpent float64
	Private      bool

	// NumSubgraphs is m; OccurrenceBound is the N_g (or M) the accounting
	// used; MaxOccurrence is the audited empirical maximum.
	NumSubgraphs    int
	OccurrenceBound int
	MaxOccurrence   int

	// Preprocess and PerEpoch are the Table III timing measurements.
	Preprocess time.Duration
	PerEpoch   time.Duration

	// LossHistory records the mean per-sample training loss at each
	// completed iteration, resumed ones included (pre-noise, so it
	// reflects what the model actually optimizes); useful for convergence
	// diagnostics. LossHistory[t+1] is the loss at the post-noise
	// parameters of iteration t, on the next batch. Its length is the
	// number of noisy iterations the run released.
	LossHistory []float64
	// acct is the run's RDP accountant (valid only when Private); Charge
	// carries it to budget ledgers, which compose runs at the Rényi level.
	acct dp.Accountant
}

// Charge is what a budget ledger commits for the run r reports, whatever
// its outcome: the accountant, the completed iterations and the ε they
// released. A nil Result (Train stopped before any noise) and a
// non-private run charge nothing.
func (r *Result) Charge() ledger.Charge {
	if r == nil || !r.Private {
		return ledger.Charge{}
	}
	return ledger.Charge{Acct: r.acct, Iterations: len(r.LossHistory), Epsilon: r.EpsilonSpent}
}

// Train runs the full pipeline of the configured method on the training
// graph g: subgraph extraction (Module 1), privacy accounting (Module 2),
// and DP-GNN training (Module 3). The run's span tree roots under ctx's
// span (the serving layer's per-job span) and inherits ctx's trace ID, so
// every event the run emits is attributable to the request that caused
// it. A nil ctx means context.Background().
//
// Once Module 2 has fixed σ, Train returns the Result of the iterations
// it ran with every error, so its EpsilonSpent and LossHistory say what
// noise the run released; a nil Result means none was. Cancellation is
// honored at two preemption points — the top of every DP-SGD iteration
// and the chunk boundaries of the per-sample gradient pass — and never
// after an iteration's noisy update has been applied, so a canceled run
// always stops on a completed-iteration boundary. On cancel Train
// returns a *CanceledError, after writing a final checkpoint when a
// checkpoint directory is configured; a failed checkpoint write stops
// the run the same way and returns the write error. Runs that complete
// without cancellation are bit-for-bit identical to runs under an
// uncancelable context at any worker count.
func Train(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.normalize(g.NumNodes())
	if err != nil {
		return nil, err
	}
	// Every draw comes from one rand.Rand over a StreamRNG that is re-keyed
	// at (seed, purpose, iteration) before each use, so the draws of any
	// iteration depend on nothing before it and resume needs no stream
	// position.
	var stream parallel.StreamRNG
	rng := rand.New(&stream)
	o := cfg.Observer
	root := obs.StartSpanCtx(ctx, o, "train")

	// Module 1: subgraph extraction.
	m1 := root.Child("module1.extract")
	preStart := time.Now()
	stream.SetStream(cfg.Seed, streamExtract)
	container, bound, err := extractContainer(g, cfg, rng)
	preprocess := time.Since(preStart)
	m1.End()
	if err != nil {
		root.End()
		return nil, err
	}
	if container.Len() == 0 {
		root.End()
		return nil, fmt.Errorf("privim: extraction produced no subgraphs (|V|=%d, n=%d, q=%v)",
			g.NumNodes(), cfg.SubgraphSize, cfg.SamplingRate)
	}

	// Module 2: privacy accounting.
	m2 := root.Child("module2.account")
	res := &Result{
		Config:          cfg,
		NumSubgraphs:    container.Len(),
		OccurrenceBound: bound,
		MaxOccurrence:   container.MaxOccurrence(),
		Preprocess:      preprocess,
	}
	batch := cfg.BatchSize
	if batch > container.Len() {
		batch = container.Len()
	}
	if batch < 1 {
		batch = 1
	}
	var sigma, noiseScale float64
	// epsilonAt is the ε spent by iters iterations (0 when none ran or the
	// run is not private). Scaling the per-iteration curve, built once, is
	// RDPCurve(iters) bit for bit without rebuilding Theorem 3's mixture.
	var unitCurve, curve []float64
	epsilonAt := func(iters int) float64 {
		if iters == 0 || unitCurve == nil {
			return 0
		}
		for i, gamma := range unitCurve {
			curve[i] = gamma * float64(iters)
		}
		return dp.EpsilonFromCurve(curve, cfg.Delta)
	}
	if cfg.Private() {
		ngEff, err := accountedBound(container, bound)
		if err == nil {
			sigma, err = dp.CalibrateSigma(cfg.Epsilon, cfg.Delta, cfg.Iterations, batch, container.Len(), ngEff)
		}
		if err != nil {
			m2.End()
			root.End()
			return nil, err
		}
		noiseScale = sigma * dp.NodeSensitivity(cfg.ClipBound, ngEff)
		res.Sigma = sigma
		res.NoiseScale = noiseScale
		res.Private = true
		res.acct = dp.Accountant{M: container.Len(), B: batch, Ng: ngEff, Sigma: sigma}
		unitCurve = res.acct.RDPCurve(1)
		curve = make([]float64, len(unitCurve))
		res.OccurrenceBound = ngEff
	}
	m2.End()

	// Module 3: DP-GNN training (Algorithm 2).
	model, err := gnn.New(cfg.Model())
	if err != nil {
		root.End()
		return res, err
	}
	initSeed := cfg.Seed
	if cfg.InitSeed != 0 {
		initSeed = cfg.InitSeed
	}
	stream.SetStream(initSeed, streamInit)
	model.Init(rng)
	res.Model = model

	opt := nn.NewAdam(model.Params, cfg.LearnRate)
	sum := nn.NewGrads(model.Params)
	// Per-sample gradients are independent; fan them out on the shared
	// worker pool and reduce with a fixed-shape tree so the accumulated
	// (clipped) gradient — and therefore every noisy update — is
	// bit-for-bit identical at any worker count.
	workers := parallel.Resolve(cfg.Workers)
	if workers > batch {
		workers = batch
	}
	batchGrads := make([]*nn.Grads, batch)
	for i := range batchGrads {
		batchGrads[i] = nn.NewGrads(model.Params)
	}

	// Pre-compute per-subgraph features, Forward preps (aggregation
	// operators, edge lists), and loss operators once: they derive from
	// subgraph structure only, and rebuilding them per sample per
	// iteration was the second-largest allocation source after the tape.
	features := make([]*tensor.Matrix, container.Len())
	preps := make([]*gnn.Prep, container.Len())
	lossAdj := make([]*autodiff.SparseMat, container.Len())
	for i, s := range container.Subgraphs {
		features[i] = tensor.FromSlice(s.G.NumNodes(), dataset.NumStructuralFeatures,
			dataset.StructuralFeatures(s.G))
		preps[i] = model.NewPrep(s.G)
		if cfg.Objective == ObjectiveMaxCover {
			lossAdj[i] = gnn.CoverMatrix(s.G)
		} else {
			lossAdj[i] = autodiff.InAdjacency(s.G)
		}
	}

	m3 := root.Child("module3.dpsgd")
	trainStart := time.Now()
	lossCfg := gnn.LossConfig{Steps: cfg.LossSteps, Lambda: cfg.Lambda}
	res.LossHistory = make([]float64, 0, cfg.Iterations)

	// Crash safety: with a checkpoint directory configured, restore the
	// newest valid checkpoint (parameters, optimizer moments, loss history)
	// and continue the loop from its iteration — bit-for-bit identical to
	// never having stopped, since iteration t's draws are keyed by t.
	startIter := 0
	var ck *checkpointer
	if cfg.CheckpointDir != "" {
		ck, err = newCheckpointer(cfg, g, res.Sigma, epsilonAt(cfg.Iterations), o)
		if err != nil {
			m3.End()
			root.End()
			return res, err
		}
		rs := m3.Child("checkpoint.resume")
		st := ck.resume(cfg, model.Params, opt)
		rs.End()
		if st != nil {
			startIter = st.iter
			res.LossHistory = append(res.LossHistory, st.loss...)
		}
	}

	batchLosses := make([]float64, batch)
	batchNorms := make([]float64, batch)
	picks := make([]int, batch)

	// Per-worker scratch: one tape (node arena + matrix pool) and one
	// bound-parameter slice per worker slot, reused across samples and
	// iterations. Tape buffers never leave the worker — losses and
	// gradients are copied out into batchLosses/batchGrads before the
	// tape is reset by the next sample.
	scratch := parallel.NewScratch(func() *trainScratch {
		return &trainScratch{tape: autodiff.NewTape()}
	})
	scratch.Grow(workers)

	// The pass bodies are hoisted out of the iteration loop: closures
	// handed to parallel.For escape (For spawns goroutines), so building
	// them per iteration would allocate; every captured variable below is
	// loop-invariant.
	forwardLoss := func(sc *trainScratch, idx int) *autodiff.Node {
		s := container.Subgraphs[idx]
		sc.tape.Reset()
		sc.bound = nn.BindInto(sc.tape, model.Params, sc.bound)
		scores := model.Forward(sc.tape, sc.bound, s.G, features[idx], preps[idx])
		if cfg.Objective == ObjectiveMaxCover {
			return gnn.MaxCoverLossCover(sc.tape, s.G, scores, cfg.CoverBudget, 1, lossAdj[idx])
		}
		return gnn.IMLoss(sc.tape, s.G, scores, lossCfg, lossAdj[idx])
	}
	gradPass := func(w, lo, hi int) {
		sc := scratch.Get(w)
		for b := lo; b < hi; b++ {
			idx := picks[b]
			loss := forwardLoss(sc, idx)
			sc.tape.Backward(loss)
			batchLosses[b] = loss.Value.Data[0] / float64(container.Subgraphs[idx].G.NumNodes())
			nn.Collect(sc.bound, batchGrads[b])
			switch {
			case cfg.Private():
				// ClipL2 reports the pre-clip norm for free.
				batchNorms[b] = batchGrads[b].ClipL2(cfg.ClipBound)
			case o != nil:
				batchNorms[b] = batchGrads[b].Norm2()
			}
		}
	}

	// stop is the loop's one early exit, after iter completed iterations:
	// it settles the Result to what those iterations released and closes
	// the spans. When err is ctx's error the run was canceled: stop
	// writes a final checkpoint at iter and returns a CanceledError. Any
	// other err, a failed checkpoint write, is returned as it is, with no
	// second write. The cancel clock is nil, and free, for uncancelable
	// contexts.
	clk := obs.WatchCancel(ctx)
	defer clk.Stop()
	stop := func(iter int, err error) (*Result, error) {
		res.EpsilonSpent = epsilonAt(iter)
		if errors.Is(err, ctx.Err()) {
			cerr := &CanceledError{Iter: iter, Total: cfg.Iterations, Err: err}
			if ck != nil && iter > 0 {
				cs := m3.Child("checkpoint.save")
				if err := ck.save(iter, model.Params, opt, res); err == nil {
					cerr.CheckpointPath = checkpointPath(ck.dir, iter)
				}
				cs.End()
			}
			obs.Emit(o, obs.Canceled{
				Phase:   "train",
				Done:    iter,
				Total:   cfg.Iterations,
				Reason:  err.Error(),
				Latency: clk.Latency(),
			})
			err = cerr
		}
		if ran := iter - startIter; ran > 0 {
			res.PerEpoch = time.Since(trainStart) / time.Duration(ran)
		}
		m3.End()
		root.End()
		return res, err
	}

	var poolStats parallel.Stats
	for t := startIter; t < cfg.Iterations; t++ {
		if err := ctx.Err(); err != nil {
			return stop(t, err)
		}
		// Draw the whole batch first, then fan the per-sample passes out
		// to the pool.
		stream.SetStream(cfg.Seed, streamBatch|uint64(t))
		for b := range picks {
			picks[b] = rng.Intn(container.Len())
		}
		st, err := parallel.For(ctx, workers, batch, 1, gradPass)
		if err != nil {
			return stop(t, err)
		}
		poolStats.Workers = st.Workers
		poolStats.Chunks += st.Chunks
		poolStats.MaxChunks += st.MaxChunks
		poolStats.MinChunks += st.MinChunks
		// Deterministic tree reduction of the clipped per-sample gradients
		// into the noise accumulator: the tree shape depends only on the
		// batch size, so the float result is worker-count independent.
		nn.SumTree(batchGrads[:batch], workers)
		sum.CopyFrom(batchGrads[0])
		meanLoss := 0.0
		for b := 0; b < batch; b++ {
			meanLoss += batchLosses[b]
		}
		meanLoss /= float64(batch)
		res.LossHistory = append(res.LossHistory, meanLoss)
		if cfg.Private() {
			stream.SetStream(cfg.Seed, streamNoise|uint64(t))
			switch cfg.Mode {
			case ModeHP, ModeHPGRAT:
				// HP pairs HeterPoisson sampling with symmetric multivariate
				// Laplace noise at the same calibrated scale.
				addSML(sum, noiseScale, rng)
			default:
				sum.AddGaussianNoise(noiseScale, rng)
			}
		}
		sum.Scale(1 / float64(batch))
		opt.Step(sum)
		if cfg.WeightDecay > 0 {
			// Decoupled (AdamW-style) decay; see Config.WeightDecay.
			decay := 1 - cfg.LearnRate*cfg.WeightDecay
			for _, p := range model.Params.All() {
				for i := range p.Value.Data {
					p.Value.Data[i] *= decay
				}
			}
		}
		if o != nil {
			var gradNorm, clipped float64
			for b := 0; b < batch; b++ {
				gradNorm += batchNorms[b]
				if cfg.Private() && batchNorms[b] > cfg.ClipBound {
					clipped++
				}
			}
			obs.Emit(o, obs.IterationEnd{
				Iter:         t,
				Loss:         meanLoss,
				GradNorm:     gradNorm / float64(batch),
				ClipFraction: clipped / float64(batch),
				EpsilonSpent: epsilonAt(t + 1),
			})
		}
		// Checkpoint after every CheckpointEvery-th completed iteration,
		// except the last (a finished run has nothing to resume). Saving
		// after the observer emit keeps the journal and the checkpoint in
		// the same order a resumed run reproduces them.
		if ck != nil && (t+1)%cfg.CheckpointEvery == 0 && t+1 < cfg.Iterations {
			cs := m3.Child("checkpoint.save")
			err := ck.save(t+1, model.Params, opt, res)
			cs.End()
			if err != nil {
				return stop(t+1, err)
			}
		}
	}
	// Timing and pool stats cover only the iterations this process ran;
	// a resumed run reports the resumed range, not the checkpointed past.
	if ran := cfg.Iterations - startIter; ran > 0 {
		res.PerEpoch = time.Since(trainStart) / time.Duration(ran)
	}
	if o != nil && cfg.Iterations > startIter {
		obs.Emit(o, obs.ParallelFor{
			Site:      "train.dpsgd",
			Workers:   poolStats.Workers,
			Tasks:     batch * (cfg.Iterations - startIter),
			Chunks:    poolStats.Chunks,
			Imbalance: poolStats.Imbalance(),
			Elapsed:   time.Since(trainStart),
		})
	}
	res.EpsilonSpent = epsilonAt(cfg.Iterations)
	m3.End()
	root.End()
	return res, nil
}

// Train's four purposes for randomness. Each is the top two bits of a
// StreamRNG stream index under the run's seed; the batch and noise
// streams carry the iteration below them.
const (
	streamExtract = uint64(iota) << 62 // Module 1
	streamInit                         // parameter init, under InitSeed when set
	streamBatch                        // iteration t's batch picks
	streamNoise                        // iteration t's Gaussian or SML noise
)

// trainScratch is one worker slot's reusable state for the DP-SGD passes:
// a tape whose Reset recycles every node and matrix between samples, and
// the bound-parameter slice rebuilt (in place) on it each sample.
type trainScratch struct {
	tape  *autodiff.Tape
	bound []*autodiff.Node
}

// addSML adds symmetric multivariate Laplace noise of scale s to every
// gradient coordinate (one mixing variable per parameter tensor).
func addSML(g *nn.Grads, s float64, rng *rand.Rand) {
	for _, m := range g.Mats() {
		dp.SMLNoise(m.Data, s, rng)
	}
}

// accountedBound returns the N_g the accountant uses, the extractor's bound
// capped at m, and refuses a container where a node appears in more
// subgraphs: its noise would be calibrated below the mechanism's sensitivity.
func accountedBound(c *sampling.Container, bound int) (int, error) {
	ng := min(bound, c.Len())
	if occ := c.MaxOccurrence(); occ > ng {
		return 0, fmt.Errorf("privim: a node appears in %d subgraphs, more than the occurrence bound %d the privacy accounting assumes", occ, ng)
	}
	return ng, nil
}

// extractContainer dispatches Module 1 per method and returns the
// container together with the occurrence bound the privacy analysis uses.
func extractContainer(g *graph.Graph, cfg Config, rng *rand.Rand) (*sampling.Container, int, error) {
	switch cfg.Mode {
	case ModeNaive:
		c, _, err := sampling.ExtractRWR(g, sampling.RWRConfig{
			SubgraphSize: cfg.SubgraphSize,
			Theta:        cfg.Theta,
			Tau:          cfg.Tau,
			SamplingRate: cfg.SamplingRate,
			WalkLength:   cfg.WalkLength,
			Hops:         cfg.Layers,
			Obs:          cfg.Observer,
		}, rng)
		if err != nil {
			return nil, 0, err
		}
		// Lemma 1: the worst-case occurrence bound grows as Σθ^i.
		return c, graph.MaxOccurrence(cfg.Theta, cfg.Layers), nil

	case ModeSCS, ModeDual, ModeNonPrivate:
		fc := sampling.FreqConfig{
			SubgraphSize: cfg.SubgraphSize,
			Tau:          cfg.Tau,
			Mu:           cfg.Mu,
			SamplingRate: cfg.SamplingRate,
			WalkLength:   cfg.WalkLength,
			Threshold:    cfg.Threshold,
			BESDivisor:   cfg.BESDivisor,
			Obs:          cfg.Observer,
		}
		if cfg.Mode == ModeSCS {
			fc.BESDivisor = 0
		}
		c, err := sampling.ExtractDualStage(g, fc, rng)
		if err != nil {
			return nil, 0, err
		}
		// The frequency cap makes N_g* = M exact.
		return c, cfg.Threshold, nil

	case ModeEGN:
		return extractEGN(g, cfg, rng)

	case ModeHP, ModeHPGRAT:
		return extractHP(g, cfg, rng)
	}
	return nil, 0, fmt.Errorf("privim: extractContainer: unhandled mode %q", cfg.Mode)
}

// Scores runs the trained model over an evaluation graph (typically the
// held-out test subgraph) and returns per-node seed probabilities.
func (r *Result) Scores(g *graph.Graph) []float64 {
	x := tensor.FromSlice(g.NumNodes(), dataset.NumStructuralFeatures, dataset.StructuralFeatures(g))
	scores, _ := r.Model.Score(context.Background(), g, x) // Background never cancels
	return scores
}

// SelectSeeds scores g and returns the top-k nodes, the paper's seed
// selection rule.
func (r *Result) SelectSeeds(g *graph.Graph, k int) []graph.NodeID {
	return im.TopKScores(r.Scores(g), k)
}

// SaveModel writes the trained model as a checkpoint readable by
// gnn.Load (and the privim.LoadModel facade) — the symmetric half of the
// load path, so callers never need to reach into Result.Model. The
// checkpoint captures architecture and weights only; privacy accounting
// lives in the Result and is not persisted.
func (r *Result) SaveModel(w io.Writer) error {
	return r.Model.Save(w)
}

// String summarizes the result for logs.
func (r *Result) String() string {
	eps := "∞"
	if r.Private {
		eps = fmt.Sprintf("%.3f", r.EpsilonSpent)
	}
	return fmt.Sprintf("privim.Result(mode=%s, m=%d, Ng=%d (audit %d), σ=%.4g, ε=%s)",
		r.Config.Mode, r.NumSubgraphs, r.OccurrenceBound, r.MaxOccurrence, r.Sigma, eps)
}

// Infinity reports +Inf for use in non-private configs.
func Infinity() float64 { return math.Inf(1) }
