package main

import (
	"encoding/binary"
	"math"
	"runtime"
	"time"
)

// digestOps is how many leading operations the output digest covers; a
// run always completes at least this many, so the digest is the same in
// every run of the same code and seed.
const digestOps = 8

// stopwatch times one step in wall-clock time net of steal and in
// process CPU time. On a shared host the hypervisor steals CPU in
// episodes that stretch the wall-clock times of identical runs by up to
// half again. Steal falls only on busy CPUs, so a step's wall-clock time
// scaled by the share of the machine's busy CPU time during the step that
// was not stolen is what it would have taken without steal, whether the
// step ran on one CPU or on all of them. Unlike CPU time it still shows a
// step that waits: on a worker that runs late, on a queue or on I/O.
type stopwatch struct {
	host hostTicks
	cpu  time.Duration
	wall time.Time
}

func startWatch() stopwatch { return stopwatch{readHostTicks(), cpuTime(), time.Now()} }

// step is one timed step, in ms.
type step struct{ wall, cpu float64 }

func (w stopwatch) stop() step { return w.stopAt(time.Since(w.wall)) }

// stopAt ends a step whose wall-clock time was measured otherwise (a
// job's, from its status) inside the stopwatch's window.
func (w stopwatch) stopAt(wall time.Duration) step {
	cpu := cpuTime() - w.cpu
	return step{ms(wall) * w.host.unstolen(readHostTicks()), ms(cpu)}
}

// timings collects the steps of one kind.
type timings struct{ wall, cpu []float64 }

func (t *timings) add(s step) {
	t.wall = append(t.wall, s.wall)
	t.cpu = append(t.cpu, s.cpu)
}

// closedLoop is one caller issuing operations back to back: warm-up
// operations untimed, then timed ones until the measured phase ends. In
// a traced run every second timed operation is traced, so traced and
// untraced operations interleave under the same host conditions and
// their medians give the tracing overhead.
type closedLoop struct {
	untraced, traced timings
	// cost covers the untraced timed operations of a traced run.
	cost runtimeCost
	// rss is the resident memory at the end of each untraced timed
	// operation, in MB. Pages the operation touched stay resident until the
	// runtime returns them, so it shows the operation's own peak.
	rss []float64
}

// run calls op(i, traced) for i = 0, 1, ... and times each call. op
// returns whether its output passed every check.
func (l *closedLoop) run(opts options, warmup int, op func(i int, traced bool) bool, r *report) {
	check := func(i int, traced bool) {
		r.attempted++
		if !op(i, traced) {
			r.failed++
		}
	}
	i := 0
	for ; i < warmup; i++ {
		// Warm both paths of a traced run.
		check(i, opts.trace && i%2 == 1)
	}
	gcBeforePhase()
	host := readHostTicks()
	end := deadline(opts.seconds)
	for timed := 0; time.Now().Before(end) || i < digestOps; timed, i = timed+1, i+1 {
		traced := opts.trace && timed%2 == 1
		// Every operation starts from a collected heap, so the garbage of
		// one does not decide when the next one collects: peak RSS and CPU
		// time then repeat across runs.
		runtime.GC()
		var before runtimeSample
		if opts.trace && !traced {
			before = sampleRuntime()
		}
		w := startWatch()
		check(i, traced)
		if traced {
			l.traced.add(w.stop())
			continue
		}
		l.untraced.add(w.stop())
		l.rss = append(l.rss, rssMB())
		if opts.trace {
			l.cost.add(before, sampleRuntime(), 1)
		}
	}
	r.info["host_steal_pct"] = host.stealPct(readHostTicks())
}

// overheadPct is the traced operations' median CPU time over the
// untraced ones', as a percentage excess.
func overheadPct(untraced, traced timings) float64 {
	return 100 * (median(traced.cpu)/median(untraced.cpu) - 1)
}

// outputDigest accumulates the digest of a run's leading outputs.
type outputDigest struct{ buf []byte }

func (d *outputDigest) nodes(ids []int32) {
	for _, v := range ids {
		d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(v))
	}
	d.buf = append(d.buf, ';')
}

func (d *outputDigest) float(x float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
}

func (d *outputDigest) sum() string { return digest(d.buf) }
