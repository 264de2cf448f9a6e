package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hostInfo records where the numbers came from.
func hostInfo() map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// rssMB is the process's resident set now (VmRSS).
func rssMB() float64 { return statusMB("VmRSS:") }

// statusMB reads one kB-valued field of /proc/self/status, in MB.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a point-in-time reading of the Go runtime counters the
// go.* metrics difference.
type runtimeSample struct {
	alloc uint64
	gcs   uint32
	cpu   time.Duration
}

func sampleRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSample{alloc: m.TotalAlloc, gcs: m.NumGC, cpu: cpuTime()}
}

// runtimeCost accumulates runtime deltas over the operations it covers.
type runtimeCost struct {
	ops   int
	alloc uint64
	gcs   uint32
	cpu   time.Duration
}

func (c *runtimeCost) add(before, after runtimeSample, ops int) {
	c.ops += ops
	c.alloc += after.alloc - before.alloc
	c.gcs += after.gcs - before.gcs
	c.cpu += after.cpu - before.cpu
}

// record writes the go.* per-operation metrics into m.
func (c *runtimeCost) record(m map[string]float64) {
	if c.ops == 0 {
		return
	}
	n := float64(c.ops)
	m["go.alloc_mb_per_op"] = float64(c.alloc) / (1 << 20) / n
	m["go.gc_per_op"] = float64(c.gcs) / n
	m["go.cpu_ms_per_op"] = ms(c.cpu) / n
}

// gcBeforePhase settles the heap so a measured phase does not pay for
// garbage left by the one before it.
func gcBeforePhase() {
	runtime.GC()
	runtime.GC()
}

// hostTicks are the machine-wide CPU tick counters of /proc/stat, summed
// over CPUs: all time, busy time (anything but idle and I/O wait) and the
// part of the busy time that the hypervisor stole.
type hostTicks struct{ total, busy, steal uint64 }

func readHostTicks() hostTicks {
	var h hostTicks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		if i >= 8 { // guest time is already counted in user
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		h.total += v
		if i != 3 && i != 4 { // idle, iowait
			h.busy += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of all CPU time between h and now that was stolen.
func (h hostTicks) stealPct(now hostTicks) float64 {
	if now.total <= h.total {
		return 0
	}
	return 100 * float64(now.steal-h.steal) / float64(now.total-h.total)
}

// unstolen is the share of the machine's busy CPU time between h and now
// that the hypervisor did not steal (1 when no busy tick fell between).
func (h hostTicks) unstolen(now hostTicks) float64 {
	busy := now.busy - h.busy
	if busy == 0 {
		return 1
	}
	return 1 - float64(now.steal-h.steal)/float64(busy)
}
