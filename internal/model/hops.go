package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// HOPS implements the comparison design from Nalli et al. [6] as configured
// in the ASAP paper (§VII): per-core persist buffers with *conservative*
// flushing — only the oldest uncommitted epoch may flush, and an epoch with
// an unresolved cross-thread dependency blocks the buffer entirely. Cross
// dependencies resolve by polling a global timestamp register every
// HOPSPollInterval cycles at HOPSPollCost per access (the paper's updated,
// realistic polling parameters). All flushes are safe; the controllers need
// no recovery table.
type HOPS struct {
	env Env
	hc  hotCounters
	rp  bool

	cores []*hopsCore
	// globalTS[t] is the highest committed epoch timestamp of thread t —
	// HOPS's global TS register, the shared structure the paper calls a
	// scaling bottleneck.
	globalTS []uint64
}

type hopsCore struct {
	id int
	pb *persist.PersistBuffer
	et *persist.EpochTable

	flushScheduled bool
	pollScheduled  bool

	storeWaiters []func()
	fenceWaiter  func()
	dfenceWaiter func()
	dfenceStart  sim.Cycles
}

func newHOPS(env Env, rp bool) *HOPS {
	m := &HOPS{env: env, hc: newHotCounters(env.St), rp: rp, globalTS: make([]uint64, env.Cfg.Cores)}
	m.cores = make([]*hopsCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &hopsCore{
			id: i,
			pb: persist.NewPersistBuffer(env.Cfg.PBEntries),
			et: persist.NewEpochTable(i, env.Cfg.ETEntries),
		}
	}
	return m
}

// Name returns hops_ep or hops_rp.
func (m *HOPS) Name() string {
	if m.rp {
		return NameHOPSRP
	}
	return NameHOPSEP
}

// Stats returns the shared stat set.
func (m *HOPS) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the open epoch of the core.
func (m *HOPS) CurrentTS(core int) uint64 { return m.cores[core].et.CurrentTS() }

// EpochCommitted consults the global TS register.
func (m *HOPS) EpochCommitted(e persist.EpochID) bool {
	return m.globalTS[e.Thread] >= e.TS
}

// Store enqueues into the persist buffer, stalling on a full buffer.
func (m *HOPS) Store(core int, line mem.Line, token mem.Token, done func()) {
	c := m.cores[core]
	m.tryEnqueue(c, line, token, done)
}

func (m *HOPS) tryEnqueue(c *hopsCore, line mem.Line, token mem.Token, done func()) {
	ts := c.et.CurrentTS()
	coalesced, ok := c.pb.Enqueue(line, token, ts)
	if !ok {
		began := m.env.Eng.Now()
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		c.storeWaiters = append(c.storeWaiters, func() {
			m.hc.cyclesStalled.Add(uint64(m.env.Eng.Now() - began))
			m.tryEnqueue(c, line, token, done)
		})
		m.kickFlusher(c)
		return
	}
	m.hc.entriesInserted.Inc()
	if coalesced {
		m.hc.pbCoalesced.Inc()
	} else {
		c.et.Current().Unacked++
	}
	m.env.Ledger.RecordWrite(persist.EpochID{Thread: c.id, TS: ts}, line, token)
	m.kickFlusher(c)
	//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
	done()
}

// Ofence closes the epoch.
func (m *HOPS) Ofence(core int, done func()) {
	c := m.cores[core]
	if c.et.Full() {
		began := m.env.Eng.Now()
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		c.fenceWaiter = func() {
			m.hc.ofenceStalled.Add(uint64(m.env.Eng.Now() - began))
			m.Ofence(core, done)
		}
		return
	}
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.tryCommit(c, closed)
	//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
	done()
}

// Dfence drains the persist buffer completely.
func (m *HOPS) Dfence(core int, done func()) {
	c := m.cores[core]
	if c.et.Full() {
		began := m.env.Eng.Now()
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		c.fenceWaiter = func() {
			m.hc.ofenceStalled.Add(uint64(m.env.Eng.Now() - began))
			m.Dfence(core, done)
		}
		return
	}
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.tryCommit(c, closed)
	if c.et.AllCommitted() {
		//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
		done()
		return
	}
	if c.dfenceWaiter != nil {
		panic("hops: overlapping dfence waits on one core")
	}
	c.dfenceStart = m.env.Eng.Now()
	c.dfenceWaiter = done
	m.kickFlusher(c)
}

// Release closes the epoch under release persistency; the machine tags the
// lock line with the closed epoch.
func (m *HOPS) Release(core int, line mem.Line, done func()) {
	c := m.cores[core]
	if m.rp && !c.et.Full() {
		relTS := c.et.CurrentTS()
		c.et.Advance()
		m.tryCommit(c, relTS)
	}
	done()
}

// Acquire needs no direct action; Conflict carries the dependency.
func (m *HOPS) Acquire(core int, line mem.Line) {}

// Conflict applies the same dependency policy as ASAP but resolution will
// happen by polling rather than CDR messages.
func (m *HOPS) Conflict(core int, cf *cache.Conflict) {
	var src persist.EpochID
	if m.rp {
		if !cf.AcquireOnRelease {
			return
		}
		src = persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
		if m.EpochCommitted(src) {
			return
		}
	} else {
		if !cf.Remote {
			return
		}
		w := m.cores[cf.Writer]
		src = persist.EpochID{Thread: cf.Writer, TS: w.et.CurrentTS()}
	}
	m.hc.interTEpochConflict.Inc()

	// Both sides split unconditionally (see ASAP.addDependency): the
	// dependency source must be a closed epoch or mutual blocking can
	// deadlock.
	w := m.cores[src.Thread]
	if w.et.CurrentTS() == src.TS {
		w.et.Advance()
		m.tryCommit(w, src.TS)
	}
	c := m.cores[core]
	prev := c.et.CurrentTS()
	c.et.Advance()
	m.tryCommit(c, prev)
	cur := c.et.Current()
	if !m.EpochCommitted(src) {
		//asaplint:ignore alloccheck legacy model bookkeeping growth, bounded by workload footprint; outside the zero-alloc gate
		cur.Deps = append(cur.Deps, src)
		m.env.Ledger.DepCreated(src, persist.EpochID{Thread: core, TS: cur.TS})
		m.hc.depsRecorded.Inc()
		m.schedulePoll(c)
	}
}

// StartDrain gives end-of-trace dfence semantics.
func (m *HOPS) StartDrain(core int, done func()) {
	m.Dfence(core, done)
}

// PBOccupancy and PBBlocked feed the sampler; Figure 3 plots the blocked
// percentage for HOPS.
func (m *HOPS) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

// PBBlocked: the buffer holds writes but conservative flushing forbids
// issuing any — the oldest epoch has an unresolved dependency, or all its
// writes are in flight while younger epochs wait.
func (m *HOPS) PBBlocked(core int) bool {
	c := m.cores[core]
	if c.pb.Empty() {
		return false
	}
	return m.nextFlushable(c) == nil && c.pb.Inflight() == 0
}

// nextFlushable returns the next waiting entry of the oldest uncommitted
// epoch, provided that epoch's dependencies are resolved. Conservative
// flushing: nothing younger may flush.
func (m *HOPS) nextFlushable(c *hopsCore) *persist.PBEntry {
	oldest := c.et.OldestTS()
	ent, ok := c.et.Get(oldest)
	if ok && !ent.DepsResolved() {
		m.schedulePoll(c)
		return nil
	}
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	return c.pb.NextWaiting(func(e *persist.PBEntry) bool { return e.TS == oldest })
}

func (m *HOPS) kickFlusher(c *hopsCore) {
	if c.flushScheduled {
		return
	}
	c.flushScheduled = true
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	m.env.Eng.After(1, func() {
		c.flushScheduled = false
		m.flushOne(c)
	})
}

func (m *HOPS) flushOne(c *hopsCore) {
	if c.pb.Inflight() >= m.env.Cfg.PBMaxInflight {
		return
	}
	e := m.nextFlushable(c)
	if e == nil {
		return
	}
	c.pb.MarkInflight(e, false)
	pkt := persist.FlushPacket{
		Line:  e.Line,
		Token: e.Token,
		Epoch: persist.EpochID{Thread: c.id, TS: e.TS},
	}
	id := e.ID
	//asaplint:ignore alloccheck closure-form flush reply; typed-event conversion of this legacy model is tracked roadmap debt
	m.env.MCs[m.env.IL.Home(e.Line)].SendFlush(pkt, func(res persist.FlushResult) {
		if res != persist.FlushAck {
			panic("hops: controller NACKed a safe flush")
		}
		m.onAck(c, id)
	})
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		m.env.Eng.After(flushIssuePace, func() { m.flushOne(c) })
	}
}

func (m *HOPS) onAck(c *hopsCore, id uint64) {
	e, ok := c.pb.Ack(id)
	if !ok {
		panic("hops: ACK for unknown persist buffer entry")
	}
	if ent, ok := c.et.Get(e.TS); ok {
		ent.Unacked--
		m.tryCommit(c, e.TS)
	}
	if len(c.storeWaiters) > 0 {
		w := c.storeWaiters[0]
		c.storeWaiters = c.storeWaiters[1:]
		w()
	}
	m.kickFlusher(c)
}

// tryCommit: a HOPS epoch commits when closed, fully ACKed, dependencies
// resolved and the previous epoch committed; it then publishes to the
// global TS register.
func (m *HOPS) tryCommit(c *hopsCore, ts uint64) {
	ent, ok := c.et.Get(ts)
	if !ok || ent.Committed {
		return
	}
	if !ent.Closed || ent.Unacked != 0 || !ent.DepsResolved() || !c.et.PrevCommitted(ts) {
		return
	}
	ent.Committed = true
	m.globalTS[c.id] = ts
	m.hc.epochsCommitted.Inc()
	m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: ts})
	c.et.Retire(ts)
	m.tryCommit(c, ts+1)
	if c.fenceWaiter != nil && !c.et.Full() {
		w := c.fenceWaiter
		c.fenceWaiter = nil
		//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
		w()
	}
	if c.dfenceWaiter != nil && c.et.AllCommitted() {
		w := c.dfenceWaiter
		c.dfenceWaiter = nil
		m.hc.dfenceStalled.Add(uint64(m.env.Eng.Now() - c.dfenceStart))
		//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
		w()
	}
	m.kickFlusher(c)
}

// schedulePoll arranges the next global-TS poll for core c. Each poll
// happens HOPSPollInterval cycles after the previous one and the register
// access itself costs HOPSPollCost before the result is visible.
func (m *HOPS) schedulePoll(c *hopsCore) {
	if c.pollScheduled {
		return
	}
	c.pollScheduled = true
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	m.env.Eng.After(m.env.Cfg.HOPSPollInterval, func() {
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		m.env.Eng.After(m.env.Cfg.HOPSPollCost, func() {
			c.pollScheduled = false
			m.hc.hopsPolls.Inc()
			m.pollOnce(c)
		})
	})
}

// pollOnce checks every unresolved dependency of the oldest epoch against
// the global TS register and re-arms the poll if any remain.
func (m *HOPS) pollOnce(c *hopsCore) {
	progress := false
	remaining := false
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	c.et.Epochs(func(ent *persist.ETEntry) {
		for ent.Resolved < len(ent.Deps) {
			src := ent.Deps[ent.Resolved]
			if m.globalTS[src.Thread] >= src.TS {
				ent.Resolved++
				progress = true
			} else {
				remaining = true
				return
			}
		}
	})
	if progress {
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		c.et.Epochs(func(ent *persist.ETEntry) { m.tryCommit(c, ent.TS) })
		m.kickFlusher(c)
	}
	if remaining {
		m.schedulePoll(c)
	}
}

var _ Model = (*HOPS)(nil)

// PBHasLine reports whether the core's persist buffer holds the line.
func (m *HOPS) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}
