package main

import (
	"fmt"
	"time"

	"asap/internal/machine"
	"asap/internal/mem"
	"asap/internal/runspec"
	"asap/internal/trace"
	"asap/internal/workload"
)

// layers is what a replay measured at each layer: work counts, which are
// exact, and the host time of each public call, timed from outside.
type layers struct {
	traces           int
	traceOps         uint64
	generate         time.Duration
	runs             int
	newTime, runTime time.Duration
	cycles           uint64
	work             workCounts
	models           map[string]*modelCost
}

// workCounts are a machine's cumulative exact work counts at one moment.
// A machine built by machine.New starts from zero; a forked one starts
// from the counts of its checkpoint, so its own work is the difference.
type workCounts struct {
	events              uint64
	ledgerRecords       uint64
	dirLines            uint64
	remote, inval       uint64
	nvmWrites, nvmReads uint64
	persist             map[string]uint64 // simulator stats, by metric name
}

type modelCost struct {
	time   time.Duration
	events uint64
}

// persistStats are the simulator counters reported under persist.*.
var persistStats = map[string]string{
	"persist.pb_inserts":       "entriesInserted",
	"persist.early_flushes":    "mcEarlyFlushes",
	"persist.safe_flushes":     "mcSafeFlushes",
	"persist.nacks":            "mcNacks",
	"persist.undo_records":     "totalUndo",
	"persist.epochs_committed": "epochsCommitted",
	"persist.wpq_full_stalls":  "mcWpqFullStalls",
}

func newLayers() *layers {
	return &layers{work: workCounts{persist: make(map[string]uint64)}, models: make(map[string]*modelCost)}
}

// replay runs every spec again through the layers' public functions, in
// order: workload.Generate (which returns the compiled trace) once per
// distinct trace, as the harness's trace cache does, then machine.New and
// Machine.Run.
func replay(specs []runspec.RunSpec) (*layers, error) {
	l := newLayers()
	type key struct {
		wl string
		p  workload.Params
	}
	traces := make(map[key]*trace.Trace)
	for _, s := range specs {
		k := key{s.Workload, s.Params}
		tr := traces[k]
		if tr == nil {
			t0 := time.Now()
			var err error
			if tr, err = workload.Generate(s.Workload, s.Params); err != nil {
				return nil, err
			}
			l.generate += time.Since(t0)
			l.traces++
			l.traceOps += uint64(tr.TotalOps())
			traces[k] = tr
		}
		t0 := time.Now()
		m, err := machine.New(s.Config, s.Model, tr)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", s, err)
		}
		t1 := time.Now()
		res := m.Run(0)
		t2 := time.Now()
		l.newTime += t1.Sub(t0)
		l.runTime += t2.Sub(t1)
		l.runs++
		l.cycles += uint64(res.Cycles)
		l.addWork(m.Model.Name(), snapshotWork(m), t2.Sub(t1))
	}
	return l, nil
}

// snapshotWork reads a machine's cumulative work counts.
func snapshotWork(m *machine.Machine) workCounts {
	w := workCounts{events: m.Eng.Dispatched(), persist: make(map[string]uint64, len(persistStats))}
	if m.Ledger != nil {
		m.Ledger.Lines(func(_ mem.Line, ws []machine.WriteRec) { w.ledgerRecords += uint64(len(ws)) })
	}
	dir := m.Hier.Directory()
	w.dirLines = uint64(dir.Len())
	w.remote = dir.RemoteTransfers()
	w.inval = dir.Invalidations()
	for _, mc := range m.MCs {
		w.nvmWrites += mc.NVM.Writes()
		w.nvmReads += mc.NVM.Reads()
	}
	for name, stat := range persistStats {
		w.persist[name] = m.St.Get(stat)
	}
	return w
}

// since returns the work done between an earlier snapshot of the same
// machine and w. Every count only grows while a machine runs.
func (w workCounts) since(before workCounts) workCounts {
	d := workCounts{
		events:        w.events - before.events,
		ledgerRecords: w.ledgerRecords - before.ledgerRecords,
		dirLines:      w.dirLines - before.dirLines,
		remote:        w.remote - before.remote,
		inval:         w.inval - before.inval,
		nvmWrites:     w.nvmWrites - before.nvmWrites,
		nvmReads:      w.nvmReads - before.nvmReads,
		persist:       make(map[string]uint64, len(w.persist)),
	}
	for name, v := range w.persist {
		d.persist[name] = v - before.persist[name]
	}
	return d
}

// addWork adds one machine's work, and the host time its dispatch loop
// took, to the totals and to its model's row.
func (l *layers) addWork(modelName string, w workCounts, run time.Duration) {
	t := &l.work
	t.events += w.events
	t.ledgerRecords += w.ledgerRecords
	t.dirLines += w.dirLines
	t.remote += w.remote
	t.inval += w.inval
	t.nvmWrites += w.nvmWrites
	t.nvmReads += w.nvmReads
	for name, v := range w.persist {
		t.persist[name] += v
	}
	mc := l.models[modelName]
	if mc == nil {
		mc = &modelCost{}
		l.models[modelName] = mc
	}
	mc.time += run
	mc.events += w.events
}

// emit files the per-layer metrics of the replay.
func (l *layers) emit(b *bench) {
	w := &l.work
	b.set("workload.generate_ms", "ms", ms(l.generate))
	b.count("workload.traces", uint64(l.traces))
	b.count("workload.trace_ops", l.traceOps)
	b.count("sim.events", w.events)
	b.count("sim.cycles", l.cycles)
	b.set("sim.ns_per_event", "ns", perEvent(l.runTime, w.events))
	b.count("machine.runs", uint64(l.runs))
	b.set("machine.new_ms", "ms", ms(l.newTime))
	b.set("machine.run_ms", "ms", ms(l.runTime))
	b.count("machine.ledger_records", w.ledgerRecords)
	b.count("cache.dir_lines", w.dirLines)
	b.count("cache.remote_transfers", w.remote)
	b.count("cache.invalidations", w.inval)
	for n, v := range w.persist {
		b.count(n, v)
	}
	early, nacks := w.persist["persist.early_flushes"], w.persist["persist.nacks"]
	b.count("persist.early_attempts", early+nacks)
	if early+nacks > 0 {
		b.exact("persist.early_accept_ratio", "fraction", float64(early)/float64(early+nacks))
	}
	b.count("mem.nvm_writes", w.nvmWrites)
	b.count("mem.nvm_reads", w.nvmReads)
	for name, mc := range l.models {
		b.set("model."+name+".run_ms", "ms", ms(mc.time))
		b.set("model."+name+".ns_per_event", "ns", perEvent(mc.time, mc.events))
	}
}

func perEvent(d time.Duration, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(events)
}
