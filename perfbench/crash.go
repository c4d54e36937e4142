package main

// The crash workload: forked crash-injection campaigns (crash.Campaign)
// over two persistent indexes and three persistence models, with the
// Theorem 1-2 image check after every injection. The harness and the
// server are bypassed; checkpoint capture/fork, Machine.Advance/CrashNow
// and crash.Check do most of the work, and the crash ledger that the
// figures workload only writes is read here.

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"asap/internal/checkpoint"
	"asap/internal/config"
	"asap/internal/crash"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/sim"
	"asap/internal/trace"
	"asap/internal/workload"
)

var (
	crashWorkloads = []string{"cceh", "p_art"}
	crashModels    = []string{model.NameASAPRP, model.NameHOPSRP, model.NameLBPP}
)

// crashInjections is the number of crash points per campaign.
const crashInjections = 500

// crashTraces generates the campaign traces, repeatedly to time the
// set-up, and returns the last set.
func crashTraces(seed uint64) (map[string]*trace.Trace, time.Duration, error) {
	p := workload.Params{Threads: 4, OpsPerThread: 200, KeyRange: 2048, ValueSize: 64, Seed: seed}
	var traces map[string]*trace.Trace
	setup, err := repeatSetup(func() error {
		traces = make(map[string]*trace.Trace)
		for _, wl := range crashWorkloads {
			tr, err := workload.Generate(wl, p)
			if err != nil {
				return err
			}
			traces[wl] = tr
		}
		return nil
	})
	return traces, setup, err
}

// campaignPass runs the six campaigns once and returns their results and
// host time. Every injection is one operation; each failed image check
// fails one. A pass after the first must reproduce the first pass's
// results. Each campaign starts from a collected heap, so that the
// previous campaign's machine is not still resident while the next one
// is built, which would make peak RSS depend on GC timing.
func campaignPass(b *bench, traces map[string]*trace.Trace, ref []crash.CampaignResult) ([]crash.CampaignResult, time.Duration, error) {
	var out []crash.CampaignResult
	var total time.Duration
	for _, wl := range crashWorkloads {
		for _, mn := range crashModels {
			runtime.GC()
			t0 := time.Now()
			res, err := crash.Campaign(config.Default(), mn, traces[wl], crashInjections, b.seed)
			total += time.Since(t0)
			if err != nil {
				return nil, 0, fmt.Errorf("campaign %s/%s: %w", wl, mn, err)
			}
			for i := 0; i < res.Runs; i++ {
				b.op(nil)
			}
			for _, f := range res.Failures {
				b.op(fmt.Errorf("campaign %s/%s: image check failed: %v", wl, mn, f.Problems))
			}
			if ref != nil {
				r := ref[len(out)]
				b.check(res.Crashes == r.Crashes && len(res.Failures) == len(r.Failures) && res.MaxCycles == r.MaxCycles,
					"campaign %s/%s not deterministic: %v vs %v", wl, mn, res, r)
			}
			out = append(out, res)
		}
	}
	return out, total, nil
}

func runCrash(b *bench) error {
	traces, setup, err := crashTraces(b.seed)
	if err != nil {
		return err
	}
	var ref []crash.CampaignResult
	var perInjection []float64
	var total time.Duration
	injections := 0
	deadline := time.Now().Add(b.seconds)
	for len(perInjection) < 3 || time.Now().Before(deadline) {
		res, d, err := campaignPass(b, traces, ref)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = res
		}
		n := 0
		for _, r := range res {
			n += r.Runs
		}
		perInjection = append(perInjection, ms(d)/float64(n))
		total += d
		injections += n
	}
	var crashes, maxCycles uint64
	for _, r := range ref {
		crashes += uint64(r.Crashes)
		maxCycles += uint64(r.MaxCycles)
	}
	b.set("setup_s", "s", setup.Seconds())
	rate := float64(injections) / total.Seconds()
	b.set("op_p50_ms", "ms", median(perInjection))
	b.set("ops_per_s", "1/s", rate)
	b.set("injections_per_s", "1/s", rate)
	b.count("crash.campaign_crashes", crashes)
	b.count("crash.reference_cycles", maxCycles)
	b.printf("crash: %d passes of %d campaigns x %d injections; op = one injection (median over passes of pass time / injections)",
		len(perInjection), len(ref), crashInjections)
	return nil
}

// crashLayers is what the traced re-enactment measured.
type crashLayers struct {
	*layers
	captures, forks, checks, lines     uint64
	capture, fork, advance, crash, chk time.Duration
	refRun                             time.Duration
	advEvents                          uint64
	counting                           time.Duration // reading work counts, not part of the re-enacted work
}

// snapshot reads m's work counts, keeping the time it takes out of the
// traced time.
func (l *crashLayers) snapshot(m *machine.Machine) workCounts {
	t := time.Now()
	w := snapshotWork(m)
	l.counting += time.Since(t)
	return w
}

// reenact performs Campaign's algorithm from the layers' public calls —
// reference run, draw, sort, capture stride, fork, CrashNow, Check —
// timing each call. It returns what Campaign would: crashes, failures and
// the reference run length. The work counts cover the reference run and
// every forked suffix (Advance, CrashNow).
func reenact(l *crashLayers, cfg config.Config, mn string, tr *trace.Trace, runs int, seed uint64) (crashes, failures int, maxCycles sim.Cycles, err error) {
	r := rng.New(seed)
	t0 := time.Now()
	m, err := machine.New(cfg, mn, tr)
	if err != nil {
		return 0, 0, 0, err
	}
	m.Start()
	t1 := time.Now()
	cp, err := checkpoint.Capture(m)
	if err != nil {
		return 0, 0, 0, err
	}
	t2 := time.Now()
	refRes := m.Run(0)
	t3 := time.Now()
	l.newTime += t1.Sub(t0)
	l.capture += t2.Sub(t1)
	l.captures++
	l.refRun += t3.Sub(t2)
	l.runs++
	l.cycles += uint64(refRes.Cycles)
	l.addWork(mn, l.snapshot(m), t3.Sub(t2))
	if refRes.Cycles == 0 {
		return 0, 0, 0, fmt.Errorf("reference run of %s reported zero cycles", mn)
	}
	for _, mc := range m.MCs {
		mc.CrashFlush()
	}
	refRep := l.timedCheck(m)
	if !refRep.OK {
		failures++
	}

	ats := make([]sim.Cycles, runs)
	order := make([]int, runs)
	for i := range ats {
		ats[i] = 1 + r.Uint64n(uint64(refRes.Cycles)+1)
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if ats[order[a]] != ats[order[b]] {
			return ats[order[a]] < ats[order[b]]
		}
		return order[a] < order[b]
	})
	stride := refRes.Cycles / 64
	for _, idx := range order {
		at := ats[idx]
		crashes++
		if at > refRes.Cycles {
			if !refRep.OK {
				failures++
			}
			continue
		}
		t := time.Now()
		m = cp.Fork()
		l.fork += time.Since(t)
		l.forks++
		before := l.snapshot(m)
		var run time.Duration
		if at-1 > cp.Cycle()+stride {
			t = time.Now()
			m.Advance(at - 1)
			d := time.Since(t)
			l.advance += d
			run += d
			t = time.Now()
			if cp, err = checkpoint.Capture(m); err != nil {
				return 0, 0, 0, err
			}
			l.capture += time.Since(t)
			l.captures++
		}
		t = time.Now()
		m.CrashNow(at)
		d := time.Since(t)
		l.crash += d
		run += d
		suffix := l.snapshot(m).since(before)
		l.advEvents += suffix.events
		l.addWork(mn, suffix, run)
		if !l.timedCheck(m).OK {
			failures++
		}
	}
	return crashes, failures, refRes.Cycles, nil
}

func (l *crashLayers) timedCheck(m *machine.Machine) crash.Report {
	t := time.Now()
	rep := crash.Check(m)
	l.chk += time.Since(t)
	l.checks++
	l.lines += uint64(rep.LinesChecked)
	return rep
}

func traceCrash(b *bench) error {
	traces, setup, err := crashTraces(b.seed)
	if err != nil {
		return err
	}
	gc := startGoCost()
	ref, untraced, err := campaignPass(b, traces, nil)
	if err != nil {
		return err
	}
	gc.stop(b)

	l := &crashLayers{layers: newLayers()}
	var traced time.Duration
	i := 0
	for _, wl := range crashWorkloads {
		for _, mn := range crashModels {
			runtime.GC()
			t0 := time.Now()
			counted := l.counting
			crashes, failures, maxCycles, err := reenact(l, config.Default(), mn, traces[wl], crashInjections, b.seed)
			traced += time.Since(t0) - (l.counting - counted)
			if err != nil {
				return fmt.Errorf("re-enact %s/%s: %w", wl, mn, err)
			}
			r := ref[i]
			b.check(crashes == r.Crashes && failures == len(r.Failures) && maxCycles == r.MaxCycles,
				"re-enactment of %s/%s found %d crashes, %d failures, %d cycles; Campaign %d, %d, %d",
				wl, mn, crashes, failures, maxCycles, r.Crashes, len(r.Failures), r.MaxCycles)
			i++
		}
	}

	var ops uint64
	for _, tr := range traces {
		ops += uint64(tr.TotalOps())
	}
	l.traceOps = ops
	l.traces = len(traces)
	l.generate = setup
	refEvents := l.work.events - l.advEvents
	l.runTime = l.refRun + l.advance + l.crash
	l.emit(b)
	b.set("machine.advance_ms", "ms", ms(l.advance))
	b.set("machine.crash_ms", "ms", ms(l.crash))
	b.count("checkpoint.captures", l.captures)
	b.count("checkpoint.forks", l.forks)
	b.set("checkpoint.capture_ms", "ms", ms(l.capture))
	b.set("checkpoint.fork_ms", "ms", ms(l.fork))
	b.count("crash.checks", l.checks)
	b.set("crash.check_ms", "ms", ms(l.chk))
	b.count("crash.lines_checked", l.lines)
	b.set("trace_overhead_pct", "%", 100*(traced.Seconds()-untraced.Seconds())/untraced.Seconds())

	injections := float64(len(ref) * crashInjections)
	rows := []attrRow{
		{"machine.new", float64(l.runs), "run", l.newTime},
		{"machine.run (reference)", float64(refEvents), "event", l.refRun},
		{"machine.advance+crash", float64(l.advEvents), "event", l.advance + l.crash},
		{"checkpoint.capture", float64(l.captures), "capture", l.capture},
		{"checkpoint.fork", float64(l.forks), "fork", l.fork},
		{"crash.check", float64(l.checks), "check", l.chk},
	}
	b.attribution(fmt.Sprintf("injections_per_s = %.0f injections / pass_s", injections), "pass_s", untraced, traced, rows)
	b.printf("injections_per_s (untraced pass) = %.1f", injections/untraced.Seconds())
	return nil
}
