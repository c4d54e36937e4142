package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// LBPP implements LB++ (Joshi et al., MICRO'15, "Efficient persist
// barriers") as the paper characterizes it in §VII-E and Table IV: epoch
// persistency tracked in the cache hierarchy, with the strictest flushing
// discipline of the compared designs — an epoch's writes begin flushing
// only after the epoch is *complete* (closed by a barrier) and all earlier
// epochs have fully persisted. The open epoch's writes sit in the cache.
// Cross-thread dependencies use the same epoch-splitting deadlock avoidance
// (LB++ is where ASAP borrows it from [14]); resolution is by waiting for
// the source epoch to persist, observed through coherence. The paper
// expects LB++ below HOPS and ASAP.
type LBPP struct {
	env   Env
	hc    hotCounters
	cores []*lbppCore
	// waiters[src] lists dependent epochs released when src persists.
	waiters     map[persist.EpochID][]persist.EpochID
	committedTS []uint64
}

type lbppCore struct {
	id int
	pb *persist.PersistBuffer
	et *persist.EpochTable

	flushScheduled bool
	storeWaiters   []func()
	fenceWaiter    func()
	dfenceWaiter   func()
	dfenceStart    sim.Cycles
}

func newLBPP(env Env) *LBPP {
	m := &LBPP{
		env:         env,
		hc:          newHotCounters(env.St),
		waiters:     make(map[persist.EpochID][]persist.EpochID),
		committedTS: make([]uint64, env.Cfg.Cores),
	}
	m.cores = make([]*lbppCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &lbppCore{
			id: i,
			pb: persist.NewPersistBuffer(env.Cfg.PBEntries),
			et: persist.NewEpochTable(i, env.Cfg.ETEntries),
		}
	}
	return m
}

// Name returns "lbpp".
func (m *LBPP) Name() string { return NameLBPP }

// Stats returns the shared stat set.
func (m *LBPP) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the open epoch of the core.
func (m *LBPP) CurrentTS(core int) uint64 { return m.cores[core].et.CurrentTS() }

// EpochCommitted reports whether epoch e has fully persisted.
func (m *LBPP) EpochCommitted(e persist.EpochID) bool {
	return m.committedTS[e.Thread] >= e.TS
}

// Store buffers the write (standing in for the dirty line tracked in the
// cache tags); nothing flushes until the epoch closes.
func (m *LBPP) Store(core int, line mem.Line, token mem.Token, done func()) {
	c := m.cores[core]
	m.tryEnqueue(c, line, token, done)
}

func (m *LBPP) tryEnqueue(c *lbppCore, line mem.Line, token mem.Token, done func()) {
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
	//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
	done()
}

// Ofence closes the epoch, which makes it eligible to flush once all its
// predecessors have persisted.
func (m *LBPP) Ofence(core int, done func()) {
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
	m.kickFlusher(c)
	//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
	done()
}

// Dfence closes the epoch and waits until everything persisted (LB++ has
// no native durability guarantee; this is the drain the paper notes it
// would need, and our workloads require one at end of trace).
func (m *LBPP) Dfence(core int, done func()) {
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
	m.kickFlusher(c)
	if c.et.AllCommitted() {
		//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
		done()
		return
	}
	if c.dfenceWaiter != nil {
		panic("lbpp: overlapping dfence waits on one core")
	}
	c.dfenceStart = m.env.Eng.Now()
	c.dfenceWaiter = done
}

// Release closes the epoch (epoch persistency: the release is ordered by
// the barrier the workload already issued around it).
func (m *LBPP) Release(core int, line mem.Line, done func()) {
	m.Ofence(core, done)
}

// Acquire needs no direct action.
func (m *LBPP) Acquire(core int, line mem.Line) {}

// Conflict applies the epoch-persistency dependency policy with the
// epoch-splitting rule LB++ introduced.
func (m *LBPP) Conflict(core int, cf *cache.Conflict) {
	if !cf.Remote {
		return
	}
	w := m.cores[cf.Writer]
	src := persist.EpochID{Thread: cf.Writer, TS: w.et.CurrentTS()}
	m.hc.interTEpochConflict.Inc()
	if w.et.CurrentTS() == src.TS {
		w.et.Advance()
		m.tryCommit(w, src.TS)
		m.kickFlusher(w)
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
func (m *LBPP) StartDrain(core int, done func()) { m.Dfence(core, done) }

// PBOccupancy, PBBlocked and PBHasLine feed the sampler and WBB.
func (m *LBPP) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

func (m *LBPP) PBBlocked(core int) bool {
	c := m.cores[core]
	if c.pb.Empty() {
		return false
	}
	return m.nextFlushable(c) == nil && c.pb.Inflight() == 0
}

func (m *LBPP) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}

// nextFlushable: strictest discipline — only the oldest epoch flushes, and
// only once it is closed and its dependencies persisted.
func (m *LBPP) nextFlushable(c *lbppCore) *persist.PBEntry {
	oldest := c.et.OldestTS()
	ent, ok := c.et.Get(oldest)
	if !ok {
		return nil
	}
	if !ent.Closed || !ent.DepsResolved() {
		return nil
	}
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	return c.pb.NextWaiting(func(e *persist.PBEntry) bool { return e.TS == oldest })
}

func (m *LBPP) kickFlusher(c *lbppCore) {
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

func (m *LBPP) flushOne(c *lbppCore) {
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
			panic("lbpp: controller NACKed a safe flush")
		}
		m.onAck(c, id)
	})
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		m.env.Eng.After(flushIssuePace, func() { m.flushOne(c) })
	}
}

func (m *LBPP) onAck(c *lbppCore, id uint64) {
	e, ok := c.pb.Ack(id)
	if !ok {
		panic("lbpp: ACK for unknown persist buffer entry")
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

func (m *LBPP) tryCommit(c *lbppCore, ts uint64) {
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

	if deps := m.waiters[epoch]; len(deps) > 0 {
		delete(m.waiters, epoch)
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

func (m *LBPP) resolve(dst persist.EpochID) {
	c := m.cores[dst.Thread]
	if ent, ok := c.et.Get(dst.TS); ok {
		ent.Resolved++
		m.tryCommit(c, dst.TS)
	}
	m.kickFlusher(c)
}

var _ Model = (*LBPP)(nil)
