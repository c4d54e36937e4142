// Command perfbench is the repository benchmark. It runs one workload —
// figures (the full evaluation sweep), crash (forked crash campaigns) or
// serve (an in-process asapd under a closed loop of clients) — through
// the public Go API for a fixed time, checks every output, and prints the
// end-to-end metrics. With -trace 1 it instead replays the same work
// through each layer's public functions, timing every call from outside,
// and prints the per-layer metrics plus an attribution of the workload's
// time to layer counts × unit costs. README.md describes every workload
// and metric.
//
// Usage, from the repository root (run.sh builds and invokes this):
//
//	perfbench -workload figures -seed 1 -seconds 25 -trace 0
//	perfbench compare OLD.json NEW.json
//
// The last line of standard output is the machine-readable result; the
// metrics it carries are the ones BENCHMARK.json lists for the mode.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one measured value. Exact marks a deterministic count: for a
// given seed it repeats bit-identically on any host, so a difference
// between two runs is a behaviour change, not noise.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

// bench is one invocation: its settings and everything it measured.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	root     string // repository root (holds testdata/golden)
	tmp      string // scratch directory for the serve workload's stores
	start    time.Time

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	report            []string // human-readable lines printed before the result
}

// op records one attempted operation; a non-nil err counts it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.problems) < 20 {
			b.problems = append(b.problems, err.Error())
		}
	}
}

// check records a consistency check as one operation.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		b.op(nil)
		return
	}
	b.op(fmt.Errorf(format, args...))
}

func (b *bench) set(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) count(name string, v uint64) {
	b.metrics[name] = metric{Value: float64(v), Unit: "count", Exact: true}
}

func (b *bench) exact(name, unit string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unit, Exact: true}
}

func (b *bench) printf(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct{ run, trace func(*bench) error }{
	"figures": {runFigures, traceFigures},
	"crash":   {runCrash, traceCrash},
	"serve":   {runServe, traceServe},
}

// spec is the part of BENCHMARK.json the program reads: which metrics the
// result line must carry in each mode, and their units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		wl      = flag.String("workload", "", "workload: figures, crash or serve")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 25, "measurement time in seconds")
		traced  = flag.Int("trace", 0, "1 replays the work layer by layer and prints per-layer metrics")
		root    = flag.String("root", ".", "repository root")
		records = flag.String("records", "", "directory to write the full result record into (empty: none)")
		commit  = flag.String("commit", "unknown", "revision of the code measured, recorded in the host fingerprint")
	)
	flag.Parse()
	correct, err := run(*wl, *seed, *seconds, *traced, *root, *records, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if err != nil || !correct {
		os.Exit(1)
	}
}

// run executes one invocation. An error means the benchmark could not run
// at all, and no result line is printed; a failed correctness check is a
// printed result with correct=false.
func run(wl string, seed uint64, seconds, traced int, root, records, commit string) (bool, error) {
	w, ok := workloads[wl]
	if !ok {
		return false, fmt.Errorf("unknown workload %q (have figures, crash, serve)", wl)
	}
	if seconds < 1 || traced < 0 || traced > 1 {
		return false, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	sp, err := readSpec(root)
	if err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	b := &bench{
		workload: wl,
		seed:     seed,
		seconds:  time.Duration(seconds) * time.Second,
		traced:   traced == 1,
		root:     root,
		tmp:      tmp,
		start:    time.Now(),
		metrics:  make(map[string]metric),
	}
	host := fingerprint(commit)
	fmt.Printf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s\n", host.CPU, host.NProc, host.GOMAXPROCS, host.Go, host.Commit)
	fn := w.run
	want := sp.EndToEnd
	if b.traced {
		fn, want = w.trace, sp.PerLayer
	}
	if err := fn(b); err != nil {
		return false, fmt.Errorf("%s: %w", wl, err)
	}
	if !b.traced {
		// VmHWM is the process's high-water mark, so reading it once the
		// workload is done covers the whole run.
		rss, err := peakRSSMB()
		if err != nil {
			return false, err
		}
		b.set("peak_rss_mb", "MB", rss)
	}
	b.set("error_rate", "fraction", float64(b.failed)/float64(max(b.attempted, 1)))

	out := make(map[string]metric, len(want))
	for _, m := range want {
		got, ok := b.metrics[m.Name]
		switch {
		case !ok && !b.traced:
			return false, fmt.Errorf("workload %s did not measure end-to-end metric %s", wl, m.Name)
		case !ok:
			// A layer this workload never calls did no work.
			got.Unit = m.Unit
		case got.Unit != m.Unit:
			return false, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		out[m.Name] = metric{Value: got.Value, Unit: got.Unit}
	}

	for _, line := range b.report {
		fmt.Println(line)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		if m.Exact {
			fmt.Printf("metric %-34s %14s %s  (exact)\n", n, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
		} else {
			fmt.Printf("metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, p := range b.problems {
		fmt.Println("FAIL:", p)
	}
	correct := b.failed == 0
	if records != "" {
		if err := writeRecord(records, b, host, correct); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.attempted, b.failed, out})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

func readSpec(root string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return sp, nil
}

// record is the full result of one invocation, written for later
// comparison with perfbench compare.
type record struct {
	Host      host              `json:"host"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeRecord(dir string, b *bench, h host, correct bool) error {
	rec := record{
		Host: h, Workload: b.workload, Seed: b.seed, Seconds: b.seconds.Seconds(), Trace: b.traced,
		Correct: correct, Attempted: b.attempted, Failed: b.failed, Problems: b.problems, Metrics: b.metrics,
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	mode := 0
	if b.traced {
		mode = 1
	}
	// The commit and the start time keep every run's record: comparing two
	// commits, or repeated runs of one, needs all of them.
	rev, dirty, _ := strings.Cut(h.Commit, "+")
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty != "" {
		rev += "+" + dirty
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s-%s.json", b.workload, b.seed, mode, rev, b.start.UTC().Format("20060102T150405.000Z"))
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("record:", strings.TrimPrefix(path, b.root+"/"))
	return nil
}
