package main

// The figures workload: the whole evaluation (every experiment of
// harness.Experiments) at the golden scale, as `asapfig all` runs it, on
// a serial harness pool. Every sweep builds a fresh Harness, so it runs
// all leader simulations again; only the process-global compiled-trace
// cache carries over, which is why the first sweep of a process is the
// cold one.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"asap/internal/harness"
	"asap/internal/machine"
	"asap/internal/runspec"
	"asap/internal/workload"
)

// figOps is the golden scale: testdata/golden holds the tables of
// Ops 80, Seed 1.
const figOps = 80

// sweep is one full regeneration of every table.
type sweep struct {
	tables []*harness.Table // in Experiments() order
	csv    []string
	dur    time.Duration
	end    time.Time
	starts []time.Time // when each leader simulation began
	runs   int64
	cycles uint64
}

// runSweep regenerates every table on a fresh serial harness. When
// observe is set it also receives each leader simulation's spec.
func runSweep(seed uint64, observe func(runspec.RunSpec)) (*sweep, error) {
	sw := &sweep{}
	opts := harness.Options{Ops: figOps, Seed: seed, Parallel: 1}
	// A timestamp per leader simulation (a few hundred per sweep) is the
	// untraced sweep's only instrumentation; with Parallel 1 the hook runs
	// inline, just before each simulation starts.
	opts.Observe = func(s runspec.RunSpec, _ *machine.Machine) {
		sw.starts = append(sw.starts, time.Now())
		if observe != nil {
			observe(s)
		}
	}
	t0 := time.Now()
	h := harness.New(opts)
	tables, err := h.Tables(harness.Experiments())
	sw.end = time.Now()
	sw.dur = sw.end.Sub(t0)
	if err != nil {
		return nil, err
	}
	sw.tables = tables
	for _, t := range tables {
		sw.csv = append(sw.csv, t.CSV())
	}
	sw.runs, sw.cycles = h.Perf()
	return sw, nil
}

// simLatencies splits a sweep into per-leader-simulation host times: from
// one leader's start to the next (construction, run, and the table work
// between them), the last one ending with the sweep.
func (sw *sweep) simLatencies() []float64 {
	out := make([]float64, len(sw.starts))
	for i, t := range sw.starts {
		next := sw.end
		if i+1 < len(sw.starts) {
			next = sw.starts[i+1]
		}
		out[i] = ms(next.Sub(t))
	}
	return out
}

// coldSweep runs the first sweep of the process and checks it: at seed 1
// every table must equal its golden file byte for byte.
func coldSweep(b *bench, observe func(runspec.RunSpec)) (*sweep, error) {
	sw, err := runSweep(b.seed, observe)
	b.op(err)
	if err != nil {
		return nil, err
	}
	if b.seed == 1 {
		for i, id := range harness.Experiments() {
			want, err := os.ReadFile(filepath.Join(b.root, "testdata", "golden", id+".csv"))
			if err != nil {
				return nil, err
			}
			b.check(sw.csv[i] == string(want), "%s: table differs from testdata/golden/%s.csv", id, id)
		}
	}
	return sw, nil
}

// checkSweep requires a sweep to reproduce the reference tables exactly.
func checkSweep(b *bench, ref, sw *sweep) {
	for i, id := range harness.Experiments() {
		if sw.csv[i] != ref.csv[i] {
			b.op(fmt.Errorf("%s: warm sweep table differs from the first sweep", id))
			return
		}
	}
	b.check(sw.runs == ref.runs && sw.cycles == ref.cycles,
		"warm sweep ran %d simulations / %d cycles, first sweep %d / %d", sw.runs, sw.cycles, ref.runs, ref.cycles)
}

type traceKey struct {
	wl string
	p  workload.Params
}

// distinctTraces lists the (workload, params) keys the specs need, in
// first-use order.
func distinctTraces(specs []runspec.RunSpec) []traceKey {
	seen := make(map[traceKey]bool)
	var out []traceKey
	for _, s := range specs {
		k := traceKey{s.Workload, s.Params}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// generateAll times workload.Generate over every key, repeated.
func generateAll(keys []traceKey) (time.Duration, error) {
	return repeatSetup(func() error {
		for _, k := range keys {
			if _, err := workload.Generate(k.wl, k.p); err != nil {
				return err
			}
		}
		return nil
	})
}

func runFigures(b *bench) error {
	var specs []runspec.RunSpec
	cold, err := coldSweep(b, func(s runspec.RunSpec) { specs = append(specs, s) })
	if err != nil {
		return err
	}
	// Set-up is what every asapfig invocation pays before simulating:
	// generating and compiling each trace the sweep replays. A process
	// pays it once (the cold sweep), so it is timed directly, repeated.
	setup, err := generateAll(distinctTraces(specs))
	if err != nil {
		return err
	}

	var sweeps, lat []float64
	var total time.Duration
	var sims int64
	deadline := time.Now().Add(b.seconds)
	for len(sweeps) < 3 || time.Now().Before(deadline) {
		runtime.GC() // each sweep starts from a collected heap
		sw, err := runSweep(b.seed, nil)
		b.op(err)
		if err != nil {
			return err
		}
		checkSweep(b, cold, sw)
		sweeps = append(sweeps, sw.dur.Seconds())
		lat = append(lat, sw.simLatencies()...)
		total += sw.dur
		sims += sw.runs
	}

	b.set("setup_s", "s", setup.Seconds())
	b.set("op_p50_ms", "ms", median(lat))
	b.set("ops_per_s", "1/s", float64(sims)/total.Seconds())
	tv, tp := tail(lat)
	b.set("op_tail_ms", "ms", tv)
	b.set("sweep_s", "s", median(sweeps))
	b.set("cold_sweep_s", "s", cold.dur.Seconds())
	b.count("figures.simulations", uint64(cold.runs))
	b.count("figures.sim_cycles", cold.cycles)
	gap, err := paperGap(cold)
	if err != nil {
		return err
	}
	b.exact("paper_gap_pct", "%", gap)
	b.printf("figures: %d warm sweeps of %d leader simulations; op = one leader simulation (n=%d, tail = p%.2f)",
		len(sweeps), cold.runs, len(lat), tp)
	return nil
}

// Paper numbers quoted in EXPERIMENTS.md: Fig8 average speedups of
// ASAP_EP and ASAP_RP over the baseline, and Fig10's average ASAP_RP
// scaling at 1, 2, 4 and 8 threads.
var paperPoints = []struct {
	table, row, model, col string
	want                   float64
}{
	{"fig8", "average", "", "asap_ep", 2.1},
	{"fig8", "average", "", "asap_rp", 2.29},
	{"fig10", "average", "asap_rp", "1t", 1.18},
	{"fig10", "average", "asap_rp", "2t", 1.79},
	{"fig10", "average", "asap_rp", "4t", 2.51},
	{"fig10", "average", "asap_rp", "8t", 2.85},
}

// paperGap is the mean relative gap, in percent, between the model's
// headline numbers and the paper's.
func paperGap(sw *sweep) (float64, error) {
	byID := make(map[string]*harness.Table)
	for _, t := range sw.tables {
		byID[t.ID] = t
	}
	var sum float64
	for _, pt := range paperPoints {
		v, err := cell(byID[pt.table], pt.row, pt.model, pt.col)
		if err != nil {
			return 0, fmt.Errorf("paper gap: %w", err)
		}
		sum += math.Abs(v-pt.want) / pt.want
	}
	return 100 * sum / float64(len(paperPoints)), nil
}

// cell reads the number in column col of the row whose first cell is row
// (and, when model is set, whose "model" column is model).
func cell(t *harness.Table, row, model, col string) (float64, error) {
	if t == nil {
		return 0, fmt.Errorf("missing table")
	}
	ci, mi := -1, -1
	for i, h := range t.Header {
		switch h {
		case col:
			ci = i
		case "model":
			mi = i
		}
	}
	for _, r := range t.Rows {
		if ci >= 0 && r[0] == row && (model == "" || (mi >= 0 && r[mi] == model)) {
			return strconv.ParseFloat(r[ci], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s/%s/%s cell", t.ID, row, model, col)
}

func traceFigures(b *bench) error {
	cold, err := coldSweep(b, nil)
	if err != nil {
		return err
	}
	// One untraced warm sweep is the reference for the tracing overhead and
	// for the attribution.
	gc := startGoCost()
	plain, err := runSweep(b.seed, nil)
	b.op(err)
	if err != nil {
		return err
	}
	gc.stop(b)
	checkSweep(b, cold, plain)

	// The traced sweep: each experiment timed on its own, each leader
	// simulation's spec recorded for the replay.
	var specs []runspec.RunSpec
	h := harness.New(harness.Options{Ops: figOps, Seed: b.seed, Parallel: 1,
		Observe: func(s runspec.RunSpec, _ *machine.Machine) { specs = append(specs, s) }})
	t0 := time.Now()
	for i, id := range harness.Experiments() {
		t := time.Now()
		tb, err := h.Experiment(id)
		b.set("harness."+id+"_ms", "ms", ms(time.Since(t)))
		if err != nil {
			return err
		}
		b.check(tb.CSV() == cold.csv[i], "%s: traced sweep table differs from the first sweep", id)
	}
	traced := time.Since(t0)
	runs, cycles := h.Perf()

	l, err := replay(specs)
	if err != nil {
		return err
	}
	b.check(l.cycles == cycles && int64(l.runs) == runs,
		"replay ran %d simulations / %d cycles, the sweep %d / %d", l.runs, l.cycles, runs, cycles)
	l.emit(b)
	b.set("harness.residual_ms", "ms", ms(traced-l.newTime-l.runTime))
	b.set("trace_overhead_pct", "%", 100*(traced.Seconds()-plain.dur.Seconds())/plain.dur.Seconds())
	gap, err := paperGap(cold)
	if err != nil {
		return err
	}
	b.exact("model.paper_gap_pct", "%", gap)

	// A warm sweep generates no traces (the process cache holds them), so
	// its time splits into machine construction, event dispatch, and the
	// harness's own work; trace generation is set-up.
	b.attribution("sweep_s (warm sweep)", "sweep_s", plain.dur, traced, []attrRow{
		{"machine.new", float64(l.runs), "run", l.newTime},
		{"sim (Machine.Run)", float64(l.work.events), "event", l.runTime},
	})
	return nil
}
