package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// LRP implements Lazy Release Persistency (Dananjaya et al., ASPLOS'20) as
// the paper characterizes it in §VII-E and Table IV: release persistency
// enforced in the cache hierarchy — buffered conservative flushing like
// HOPS, but cross-thread dependencies are resolved by *stalling the
// coherence transfer*: a forward request for a released cache line blocks
// until the releaser's earlier writes persist. The acquiring core therefore
// stalls at the acquire itself instead of at its persist buffer. "ASAP
// instead records the dependency information and persists writes
// speculatively without stalling. Hence, ASAP would perform better than
// LRP."
type LRP struct {
	env   Env
	hc    hotCounters
	cores []*lrpCore
	// stallees[src] lists cores whose acquire is blocked until src
	// persists.
	stallees    map[persist.EpochID][]int
	committedTS []uint64
}

type lrpCore struct {
	id int
	pb *persist.PersistBuffer
	et *persist.EpochTable

	flushScheduled bool
	storeWaiters   []func()
	fenceWaiter    func()
	dfenceWaiter   func()
	dfenceStart    sim.Cycles

	// acquireStall holds the epoch whose persist the next operation of
	// this core must wait for (the blocked coherence forward).
	acquireStall *persist.EpochID
	stallBegan   sim.Cycles
	stalled      []func()
}

func newLRP(env Env) *LRP {
	m := &LRP{
		env:         env,
		hc:          newHotCounters(env.St),
		stallees:    make(map[persist.EpochID][]int),
		committedTS: make([]uint64, env.Cfg.Cores),
	}
	m.cores = make([]*lrpCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &lrpCore{
			id: i,
			pb: persist.NewPersistBuffer(env.Cfg.PBEntries),
			et: persist.NewEpochTable(i, env.Cfg.ETEntries),
		}
	}
	return m
}

// Name returns "lrp".
func (m *LRP) Name() string { return NameLRP }

// Stats returns the shared stat set.
func (m *LRP) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the open epoch of the core.
func (m *LRP) CurrentTS(core int) uint64 { return m.cores[core].et.CurrentTS() }

// EpochCommitted reports whether epoch e has fully persisted.
func (m *LRP) EpochCommitted(e persist.EpochID) bool {
	return m.committedTS[e.Thread] >= e.TS
}

// gate defers fn while the core's acquire is blocked on a remote persist.
func (m *LRP) gate(c *lrpCore, fn func()) {
	if c.acquireStall != nil {
		c.stalled = append(c.stalled, fn)
		return
	}
	fn()
}

// Store buffers the write, gated behind any blocked acquire.
func (m *LRP) Store(core int, line mem.Line, token mem.Token, done func()) {
	c := m.cores[core]
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	m.gate(c, func() { m.tryEnqueue(c, line, token, done) })
}

func (m *LRP) tryEnqueue(c *lrpCore, line mem.Line, token mem.Token, done func()) {
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
	done()
}

// Ofence closes the epoch.
func (m *LRP) Ofence(core int, done func()) {
	c := m.cores[core]
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	m.gate(c, func() { m.ofence(c, done) })
}

func (m *LRP) ofence(c *lrpCore, done func()) {
	if c.et.Full() {
		began := m.env.Eng.Now()
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		c.fenceWaiter = func() {
			m.hc.ofenceStalled.Add(uint64(m.env.Eng.Now() - began))
			m.ofence(c, done)
		}
		return
	}
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.tryCommit(c, closed)
	done()
}

// Dfence drains the persist buffer.
func (m *LRP) Dfence(core int, done func()) {
	c := m.cores[core]
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	m.gate(c, func() { m.dfence(c, done) })
}

func (m *LRP) dfence(c *lrpCore, done func()) {
	if c.et.Full() {
		began := m.env.Eng.Now()
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		c.fenceWaiter = func() {
			m.hc.ofenceStalled.Add(uint64(m.env.Eng.Now() - began))
			m.dfence(c, done)
		}
		return
	}
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.tryCommit(c, closed)
	if c.et.AllCommitted() {
		done()
		return
	}
	if c.dfenceWaiter != nil {
		panic("lrp: overlapping dfence waits on one core")
	}
	c.dfenceStart = m.env.Eng.Now()
	c.dfenceWaiter = done
	m.kickFlusher(c)
}

// Release closes the epoch (one-sided barrier of release persistency).
func (m *LRP) Release(core int, line mem.Line, done func()) {
	c := m.cores[core]
	m.gate(c, func() {
		if !c.et.Full() {
			relTS := c.et.CurrentTS()
			c.et.Advance()
			m.tryCommit(c, relTS)
		}
		done()
	})
}

// Acquire needs no direct action; Conflict installs the stall.
func (m *LRP) Acquire(core int, line mem.Line) {}

// Conflict: an acquire of a released line whose release epoch has not
// persisted blocks the requesting core — LRP's stalled coherence forward.
func (m *LRP) Conflict(core int, cf *cache.Conflict) {
	if !cf.AcquireOnRelease {
		return
	}
	src := persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
	if m.EpochCommitted(src) {
		return
	}
	m.hc.interTEpochConflict.Inc()
	m.hc.lrpForwardStalls.Inc()
	c := m.cores[core]
	if c.acquireStall == nil {
		s := src
		c.acquireStall = &s
		c.stallBegan = m.env.Eng.Now()
		//asaplint:ignore alloccheck legacy model map bounded by workload footprint; outside the zero-alloc gate
		m.stallees[src] = append(m.stallees[src], core)
	}
	// Make sure the source epoch is closed so it can persist.
	w := m.cores[src.Thread]
	if w.et.CurrentTS() == src.TS {
		w.et.Advance()
		m.tryCommit(w, src.TS)
		m.kickFlusher(w)
	}
}

// StartDrain gives end-of-trace dfence semantics.
func (m *LRP) StartDrain(core int, done func()) { m.Dfence(core, done) }

// PBOccupancy, PBBlocked, PBHasLine feed the sampler and WBB.
func (m *LRP) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

func (m *LRP) PBBlocked(core int) bool {
	c := m.cores[core]
	if c.pb.Empty() {
		return false
	}
	return m.nextFlushable(c) == nil && c.pb.Inflight() == 0
}

func (m *LRP) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}

// nextFlushable: conservative oldest-epoch flushing, like HOPS.
func (m *LRP) nextFlushable(c *lrpCore) *persist.PBEntry {
	oldest := c.et.OldestTS()
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	return c.pb.NextWaiting(func(e *persist.PBEntry) bool { return e.TS == oldest })
}

func (m *LRP) kickFlusher(c *lrpCore) {
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

func (m *LRP) flushOne(c *lrpCore) {
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
			panic("lrp: controller NACKed a safe flush")
		}
		m.onAck(c, id)
	})
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		m.env.Eng.After(flushIssuePace, func() { m.flushOne(c) })
	}
}

func (m *LRP) onAck(c *lrpCore, id uint64) {
	e, ok := c.pb.Ack(id)
	if !ok {
		panic("lrp: ACK for unknown persist buffer entry")
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

func (m *LRP) tryCommit(c *lrpCore, ts uint64) {
	ent, ok := c.et.Get(ts)
	if !ok || ent.Committed {
		return
	}
	if !ent.Closed || ent.Unacked != 0 || !c.et.PrevCommitted(ts) {
		return
	}
	ent.Committed = true
	m.committedTS[c.id] = ts
	m.hc.epochsCommitted.Inc()
	epoch := persist.EpochID{Thread: c.id, TS: ts}
	m.env.Ledger.EpochCommitted(epoch)
	c.et.Retire(ts)

	// Unblock coherence forwards waiting on this epoch.
	if cores := m.stallees[epoch]; len(cores) > 0 {
		delete(m.stallees, epoch)
		for _, id := range cores {
			id := id
			//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
			m.env.Eng.After(m.env.Cfg.MsgLat, func() { m.unstall(id) })
		}
	}

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

func (m *LRP) unstall(core int) {
	c := m.cores[core]
	if c.acquireStall == nil {
		return
	}
	m.hc.lrpStallCycles.Add(uint64(m.env.Eng.Now() - c.stallBegan))
	c.acquireStall = nil
	pend := c.stalled
	c.stalled = nil
	for _, fn := range pend {
		fn()
	}
}

var _ Model = (*LRP)(nil)
