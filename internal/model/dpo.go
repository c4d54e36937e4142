package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// DPO implements Delegated Persist Ordering (Kolli et al., MICRO'16) as the
// paper characterizes it in §VII-E and Table IV: persist buffers alongside
// the private caches with *conservative* flushing — like HOPS — but
// cross-thread dependencies resolve through interconnect snooping
// (broadcast) rather than polling a global register, so resolution is fast
// but every commit costs a broadcast. DPO does not support multiple memory
// controllers; on this 2-MC machine it falls back to the same
// wait-for-all-ACKs cross-MC ordering as HOPS, which is exactly the
// configuration the paper predicts performs "comparable to HOPS and lesser
// than ASAP".
type DPO struct {
	env   Env
	hc    hotCounters
	cores []*dpoCore
	// waiters[src] lists dependent epochs to notify when src commits —
	// the snooped broadcast.
	waiters map[persist.EpochID][]persist.EpochID

	committedTS []uint64
}

type dpoCore struct {
	id int
	pb *persist.PersistBuffer
	et *persist.EpochTable

	flushScheduled bool
	storeWaiters   []func()
	fenceWaiter    func()
	dfenceWaiter   func()
	dfenceStart    sim.Cycles
}

func newDPO(env Env) *DPO {
	m := &DPO{
		env:         env,
		hc:          newHotCounters(env.St),
		waiters:     make(map[persist.EpochID][]persist.EpochID),
		committedTS: make([]uint64, env.Cfg.Cores),
	}
	m.cores = make([]*dpoCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &dpoCore{
			id: i,
			pb: persist.NewPersistBuffer(env.Cfg.PBEntries),
			et: persist.NewEpochTable(i, env.Cfg.ETEntries),
		}
	}
	return m
}

// Name returns "dpo".
func (m *DPO) Name() string { return NameDPO }

// Stats returns the shared stat set.
func (m *DPO) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the open epoch of the core.
func (m *DPO) CurrentTS(core int) uint64 { return m.cores[core].et.CurrentTS() }

// EpochCommitted reports whether epoch e has committed.
func (m *DPO) EpochCommitted(e persist.EpochID) bool {
	return m.committedTS[e.Thread] >= e.TS
}

// Store enqueues into the persist buffer, stalling on a full buffer.
func (m *DPO) Store(core int, line mem.Line, token mem.Token, done func()) {
	c := m.cores[core]
	m.tryEnqueue(c, line, token, done)
}

func (m *DPO) tryEnqueue(c *dpoCore, line mem.Line, token mem.Token, done func()) {
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
func (m *DPO) Ofence(core int, done func()) {
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
func (m *DPO) Dfence(core int, done func()) {
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
		panic("dpo: overlapping dfence waits on one core")
	}
	c.dfenceStart = m.env.Eng.Now()
	c.dfenceWaiter = done
	m.kickFlusher(c)
}

// Release closes the epoch (release persistency).
func (m *DPO) Release(core int, line mem.Line, done func()) {
	c := m.cores[core]
	if !c.et.Full() {
		relTS := c.et.CurrentTS()
		c.et.Advance()
		m.tryCommit(c, relTS)
	}
	done()
}

// Acquire needs no direct action; Conflict carries the dependency.
func (m *DPO) Acquire(core int, line mem.Line) {}

// Conflict records a dependency under release persistency (DPO is evaluated
// with the RP policy here, its favourable configuration).
func (m *DPO) Conflict(core int, cf *cache.Conflict) {
	if !cf.AcquireOnRelease {
		return
	}
	src := persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
	if m.EpochCommitted(src) {
		return
	}
	m.hc.interTEpochConflict.Inc()
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
		dst := persist.EpochID{Thread: core, TS: cur.TS}
		//asaplint:ignore alloccheck legacy model map bounded by workload footprint; outside the zero-alloc gate
		m.waiters[src] = append(m.waiters[src], dst)
		m.env.Ledger.DepCreated(src, dst)
		m.hc.depsRecorded.Inc()
	}
}

// StartDrain gives end-of-trace dfence semantics.
func (m *DPO) StartDrain(core int, done func()) { m.Dfence(core, done) }

// PBOccupancy and PBBlocked feed the sampler.
func (m *DPO) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

// PBBlocked mirrors HOPS: conservative flushing with nothing eligible.
func (m *DPO) PBBlocked(core int) bool {
	c := m.cores[core]
	if c.pb.Empty() {
		return false
	}
	return m.nextFlushable(c) == nil && c.pb.Inflight() == 0
}

// PBHasLine reports whether the core's persist buffer holds the line.
func (m *DPO) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}

func (m *DPO) nextFlushable(c *dpoCore) *persist.PBEntry {
	oldest := c.et.OldestTS()
	if ent, ok := c.et.Get(oldest); ok && !ent.DepsResolved() {
		return nil // waiting for a snooped commit broadcast
	}
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	return c.pb.NextWaiting(func(e *persist.PBEntry) bool { return e.TS == oldest })
}

func (m *DPO) kickFlusher(c *dpoCore) {
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

func (m *DPO) flushOne(c *dpoCore) {
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
			panic("dpo: controller NACKed a safe flush")
		}
		m.onAck(c, id)
	})
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		m.env.Eng.After(flushIssuePace, func() { m.flushOne(c) })
	}
}

func (m *DPO) onAck(c *dpoCore, id uint64) {
	e, ok := c.pb.Ack(id)
	if !ok {
		panic("dpo: ACK for unknown persist buffer entry")
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

func (m *DPO) tryCommit(c *dpoCore, ts uint64) {
	ent, ok := c.et.Get(ts)
	if !ok || ent.Committed {
		return
	}
	if !ent.Closed || ent.Unacked != 0 || !ent.DepsResolved() || !c.et.PrevCommitted(ts) {
		return
	}
	ent.Committed = true
	m.committedTS[c.id] = ts
	m.hc.epochsCommitted.Inc()
	epoch := persist.EpochID{Thread: c.id, TS: ts}
	m.env.Ledger.EpochCommitted(epoch)
	c.et.Retire(ts)

	// Snooped broadcast: every dependent sees the commit after one
	// interconnect hop. The broadcast itself is DPO's scaling cost.
	if deps := m.waiters[epoch]; len(deps) > 0 {
		delete(m.waiters, epoch)
		m.hc.dpoBroadcasts.Inc()
		for _, dst := range deps {
			dst := dst
			//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
			m.env.Eng.After(m.env.Cfg.MsgLat, func() { m.resolve(dst) })
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

func (m *DPO) resolve(dst persist.EpochID) {
	c := m.cores[dst.Thread]
	if ent, ok := c.et.Get(dst.TS); ok {
		ent.Resolved++
		m.tryCommit(c, dst.TS)
	}
	m.kickFlusher(c)
}

var _ Model = (*DPO)(nil)
