// Command privim trains a differentially private GNN for influence
// maximization and reports the selected seed set with its privacy
// accounting, reproducing the end-to-end PrivIM pipeline on one dataset.
//
// Usage:
//
//	privim -preset lastfm -scale 0.05 -mode privim* -eps 3 -k 10
//	privim -graph my.edges -mode privim -eps 1 -k 20
//	privim -journal run.jsonl -debug-addr localhost:6060 -preset email
//	privim -trace-out trace.json -slow-span 2s -preset email
//	privim -stats-every 10s -profile-dir ./profiles -preset email
//
// -stats-every prints a one-line telemetry summary (iterations, ε spent,
// goroutines, heap) to stderr each interval and keeps an
// in-process metric history, queryable at the -debug-addr listener's
// /v1/stats and /v1/alerts. -profile-dir captures pprof heap+CPU pairs
// when a -slow-span watchdog trips, pruned to the newest -profile-keep.
package main

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"privim/internal/cliutil"
	"privim/internal/dataset"
	"privim/internal/diffusion"
	"privim/internal/gnn"
	"privim/internal/graph"
	"privim/internal/im"
	"privim/internal/ledger"
	"privim/internal/privim"
	"privim/internal/tensor"
)

func main() {
	var (
		preset      = flag.String("preset", "email", "dataset preset (ignored when -graph is set)")
		scale       = flag.Float64("scale", 0.05, "dataset scale fraction")
		graphPath   = flag.String("graph", "", "edge-list file to load instead of a preset")
		mode        = flag.String("mode", "privim*", "method: privim, privim+scs, privim*, non-private, egn, hp, hp-grat")
		gnnKind     = flag.String("gnn", "", "architecture override: gcn, sage, gat, grat, gin")
		eps         = flag.Float64("eps", 3, "privacy budget epsilon (0 = non-private)")
		k           = flag.Int("k", 10, "seed set size")
		iters       = flag.Int("iters", 40, "training iterations T")
		n           = flag.Int("n", 20, "subgraph size")
		threshold   = flag.Int("m", 4, "frequency threshold M (PrivIM*)")
		theta       = flag.Int("theta", 10, "in-degree bound (PrivIM naive)")
		seed        = flag.Int64("seed", 1, "random seed of the preset, the spread estimate and -celf; when set, also of private training")
		compare     = flag.Bool("celf", false, "also run CELF for a coverage ratio")
		steps       = flag.Int("j", 1, "diffusion steps for evaluation and loss")
		savePath    = flag.String("save", "", "write the trained model checkpoint to this path")
		loadPath    = flag.String("load", "", "skip training and score with this checkpoint")
		workers     = cliutil.RegisterWorkers(flag.CommandLine)
		obsFlags    cliutil.ObserverFlags
		ckptFlags   cliutil.CheckpointFlags
		budgetFlags cliutil.BudgetFlags
	)
	obsFlags.Register(flag.CommandLine)
	ckptFlags.Register(flag.CommandLine)
	budgetFlags.Register(flag.CommandLine, "budget-file")
	flag.Parse()
	cliutil.ApplyWorkers(*workers)

	stack, err := obsFlags.Setup("privim", nil)
	if err != nil {
		fatal(err)
	}
	defer stack.Close()
	observer := stack.Observer
	ctx := stack.Context(context.Background())
	if observer != nil {
		fmt.Printf("trace: %s\n", stack.TraceID)
	}

	// SIGINT/SIGTERM cancel the run instead of killing it: training stops
	// at its next preemption point, writes a final checkpoint (with
	// -checkpoint-dir), commits the ε actually spent, and reports where to
	// resume — so an interrupt discards nothing. A second signal exits
	// immediately.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "privim: interrupt — stopping at the next preemption point (interrupt again to kill)")
		cancelRun()
		<-sigCh
		os.Exit(130)
	}()

	g, err := loadGraph(*graphPath, *preset, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	st := g.ComputeStats()
	fmt.Printf("graph: |V|=%d |E|=%d avg-degree=%.2f\n", st.Nodes, st.Edges, st.AvgDegree)

	cfg := privim.Config{
		Mode:         privim.Mode(*mode),
		Epsilon:      *eps,
		SubgraphSize: *n,
		Threshold:    *threshold,
		Theta:        *theta,
		Iterations:   *iters,
		LossSteps:    *steps,
		Seed:         *seed,
		Observer:     observer,

		// Crash safety: with -checkpoint-dir, an interrupted run picks up
		// from its last checkpoint and finishes bit-for-bit identically.
		CheckpointDir:   ckptFlags.Dir,
		CheckpointEvery: ckptFlags.Every,
	}
	if *gnnKind != "" {
		cfg.GNNKind = gnn.Kind(*gnnKind)
	}
	// A private run without -seed trains under a secret seed.
	var secret bool
	cfg.Seed, secret, err = trainSeed(flag.CommandLine, *seed, *loadPath == "" && cfg.Private(), rand.Reader)
	if err != nil {
		fatal(err)
	}
	if secret && ckptFlags.Dir != "" {
		fmt.Fprintln(os.Stderr, "privim: training under a secret seed: the checkpoint fingerprint includes the seed, so no later run resumes this one from -checkpoint-dir (set -seed to make it resumable)")
	}

	// Local privacy-budget guard: with -budget/-budget-file, each private
	// run against this graph draws down a durable per-graph ledger — the
	// single-machine twin of the daemon's per-tenant enforcement. The run
	// reserves its requested ε up front (an exhausted ledger refuses to
	// train) and, whatever its outcome, commits the RDP spend of the
	// iterations the trainer ran.
	var (
		budgetLedger *ledger.Ledger
		budgetRef    string
		budgetFP     string
	)
	if *loadPath == "" && cfg.Private() && (budgetFlags.Budget > 0 || budgetFlags.Path != "") {
		budgetLedger, err = ledger.Open(ledger.Options{
			Budget: budgetFlags.Budget,
			Delta:  budgetFlags.Delta,
			Path:   budgetFlags.Path,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "privim: "+format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		budgetFP = fmt.Sprintf("%016x", g.Fingerprint())
		budgetRef = "run-" + stack.TraceID
		if cfg.Delta == 0 {
			// Compose at the ledger's δ so the committed spend matches the
			// requested ε (see serve's budget-charged jobs for the same rule).
			cfg.Delta = budgetLedger.Delta()
		}
		if err := budgetLedger.Reserve(budgetRef, "local", budgetFP, *eps); err != nil {
			fatal(err)
		}
	}

	var seeds []graph.NodeID
	if *loadPath != "" {
		model, err := loadCheckpoint(*loadPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded checkpoint %s (%s, %d params)\n", *loadPath, model.Cfg.Kind, model.Params.NumParams())
		x := tensor.FromSlice(g.NumNodes(), dataset.NumStructuralFeatures, dataset.StructuralFeatures(g))
		scores, _ := model.Score(context.Background(), g, x) // Background never cancels
		seeds = im.TopKScores(scores, *k)
	} else {
		res, err := privim.Train(runCtx, g, cfg)
		if budgetLedger != nil {
			budgetLedger.Commit(budgetRef, "local", budgetFP, res.Charge())
		}
		var cerr *privim.CanceledError
		switch {
		case errors.As(err, &cerr):
			// Interrupted at an iteration boundary: the commit above charged
			// only the completed iterations; point at the resume checkpoint.
			fmt.Fprintf(os.Stderr, "privim: canceled after %d/%d iterations (ε spent %.4f of %.4f)\n",
				cerr.Iter, cerr.Total, res.EpsilonSpent, *eps)
			if cerr.CheckpointPath != "" && !secret {
				fmt.Fprintf(os.Stderr, "privim: final checkpoint %s — rerun with the same flags to resume bit-for-bit\n",
					cerr.CheckpointPath)
			}
			stack.Close()
			os.Exit(130)
		case err != nil:
			fatal(err)
		}
		if budgetLedger != nil {
			b := budgetLedger.Balance("local", budgetFP)
			if b.Enforced {
				fmt.Printf("privacy budget: ε %.4f committed of %.4f (%.4f remaining) for graph %s\n",
					b.Committed, b.Budget, b.Remaining, budgetFP)
			} else {
				fmt.Printf("privacy budget: ε %.4f committed for graph %s\n", b.Committed, budgetFP)
			}
		}
		fmt.Println(res)
		if *savePath != "" {
			if err := saveCheckpoint(*savePath, res.Model); err != nil {
				fatal(err)
			}
			fmt.Printf("checkpoint written to %s\n", *savePath)
		}
		seeds = res.SelectSeeds(g, *k)
	}
	model := &diffusion.IC{G: g, MaxSteps: *steps}
	spread, err := diffusion.Estimate(runCtx, model, seeds, 10, *seed, diffusion.Options{Obs: observer})
	if err != nil {
		canceled(stack.Close, err)
	}
	fmt.Printf("selected %d seeds: %v\n", len(seeds), seeds)
	fmt.Printf("influence spread (j=%d): %.2f of %d nodes\n", *steps, spread, g.NumNodes())

	if *compare {
		celf := &im.CELF{Model: model, Rounds: 10, Seed: *seed, NumNodes: g.NumNodes(), Obs: observer}
		celfSeeds, err := celf.SelectContext(runCtx, *k)
		if err != nil {
			canceled(stack.Close, err)
		}
		ref, _ := diffusion.Estimate(context.Background(), model, celfSeeds, 10, *seed, diffusion.Options{}) // Background never cancels
		fmt.Printf("CELF reference spread: %.2f  coverage ratio: %.2f%%\n", ref, im.CoverageRatio(spread, ref))
	}
}

// trainSeed returns the seed a training run uses and whether it is
// secret. When private is set and fs's command line does not set -seed,
// it draws the seed from random, and the caller prints it nowhere: under
// a seed anyone can know, a private model is a deterministic function of
// its graph, which tells neighbouring graphs apart whatever ε says.
// Otherwise it returns seed, -seed's value, 0 included.
func trainSeed(fs *flag.FlagSet, seed int64, private bool, random io.Reader) (int64, bool, error) {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == "seed" })
	if set || !private {
		return seed, false, nil
	}
	var b [8]byte
	if _, err := io.ReadFull(random, b[:]); err != nil {
		return 0, false, fmt.Errorf("drawing a secret seed: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(b[:])), true, nil
}

// canceled reports an evaluation-phase cancellation and exits with the
// conventional interrupted status.
func canceled(close func(), err error) {
	fmt.Fprintln(os.Stderr, "privim:", err)
	close()
	os.Exit(130)
}

func loadGraph(path, preset string, scale float64, seed int64) (*graph.Graph, error) {
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return dataset.ParseGraph(data)
	}
	ds, err := dataset.Generate(dataset.Preset(preset), dataset.Options{
		Scale: scale, Seed: seed, InfluenceProb: 1,
	})
	if err != nil {
		return nil, err
	}
	return ds.Graph, nil
}

func saveCheckpoint(path string, model *gnn.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := model.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadCheckpoint(path string) (*gnn.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gnn.Load(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "privim:", err)
	os.Exit(1)
}
