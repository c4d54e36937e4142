package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// host fingerprints the machine a result was measured on, and names the
// code measured. Times are comparable only between results from the same
// machine (every field but Commit); exact counts are comparable everywhere.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint(commit string) host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// median of xs (mean of the middle pair for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and that percentile. With eleven samples or fewer it is the
// minimum; callers report the percentile so the sample count shows.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := max(len(s)-11, 0)
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// A set-up is repeated at least setupMinReps times and until setupMinTime
// has passed, at most setupMaxReps times, so that short set-ups are
// timed often enough for a steady median.
const (
	setupMinReps = 5
	setupMaxReps = 50
	setupMinTime = 500 * time.Millisecond
)

// repeatSetup times fn repeatedly and returns the median duration.
func repeatSetup(fn func() error) (time.Duration, error) {
	return repeatTimed(func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	})
}

// repeatTimed runs fn repeatedly and returns the median of the set-up
// times it reports, which leave out any teardown it does. Each repetition
// starts from a collected heap, so the garbage of the last one (a
// generated trace holds a whole simulated persistent heap) is never
// resident beside the next and peak RSS does not depend on GC timing.
func repeatTimed(fn func() (time.Duration, error)) (time.Duration, error) {
	var reps []float64
	var spent time.Duration
	for len(reps) < setupMinReps || (spent < setupMinTime && len(reps) < setupMaxReps) {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return 0, err
		}
		spent += d
		reps = append(reps, d.Seconds())
	}
	return time.Duration(median(reps) * float64(time.Second)), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// goCost is the Go runtime's cost over an interval: bytes allocated, GC
// cycles and total stop-the-world pause.
type goCost struct{ before runtime.MemStats }

func startGoCost() *goCost {
	g := &goCost{}
	runtime.ReadMemStats(&g.before)
	return g
}

// stop records the interval's cost as the go.* per-layer metrics.
func (g *goCost) stop(b *bench) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	b.set("go.alloc_mb", "MB", float64(after.TotalAlloc-g.before.TotalAlloc)/(1<<20))
	b.set("go.gc_cycles", "count", float64(after.NumGC-g.before.NumGC))
	b.set("go.gc_pause_ms", "ms", float64(after.PauseTotalNs-g.before.PauseTotalNs)/1e6)
}
