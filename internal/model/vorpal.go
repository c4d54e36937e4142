package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Vorpal implements the vector-clock design of Korgaonkar et al. (PODC'19)
// as the paper characterizes it in §III and §VII-E: one of the few schemes
// that addresses multi-controller ordering, but by *delaying writes at the
// memory controller* until vector clocks prove them safe, with the
// controllers broadcasting their clocks periodically — "the broadcast
// frequency determines the rate of forward progress". Persist buffers issue
// eagerly (no core-side ordering stalls), every flush carries a vector
// timestamp (tag cost accounted in stats), and each controller parks the
// flush until its last-broadcast view shows all of the thread's earlier
// epochs persisted everywhere.
type Vorpal struct {
	env   Env
	hc    hotCounters
	cores []*vorpalCore

	// persisted[t][mc] = highest epoch of thread t fully persisted at mc.
	persisted [][]uint64
	// visible[t] = min over controllers of persisted as of the last
	// broadcast — the view each controller orders against.
	visible []uint64
	// pending flushes parked at each controller.
	pending [][]vorpalFlush
	// deps[e] lists cross-thread epochs e's writes must wait for — the
	// information real Vorpal encodes in the vector timestamps.
	deps map[persist.EpochID][]persist.EpochID

	broadcastOn bool
}

type vorpalFlush struct {
	line   mem.Line
	token  mem.Token
	epoch  persist.EpochID
	pbID   uint64
	core   int
	parked sim.Cycles
}

type vorpalCore struct {
	id int
	pb *persist.PersistBuffer
	et *persist.EpochTable

	// unpersisted[ts] counts writes of epoch ts not yet persisted at any
	// controller (parked or in flight).
	flushScheduled bool
	storeWaiters   []func()
	fenceWaiter    func()
	dfenceWaiter   func()
	dfenceStart    sim.Cycles
}

// vorpalBroadcastInterval is the inter-controller clock broadcast period;
// the paper notes it bounds forward progress.
const vorpalBroadcastInterval sim.Cycles = 500

func newVorpal(env Env) *Vorpal {
	m := &Vorpal{env: env, hc: newHotCounters(env.St)}
	m.cores = make([]*vorpalCore, env.Cfg.Cores)
	m.persisted = make([][]uint64, env.Cfg.Cores)
	m.visible = make([]uint64, env.Cfg.Cores)
	m.pending = make([][]vorpalFlush, env.Cfg.MCs)
	m.deps = make(map[persist.EpochID][]persist.EpochID)
	for i := range m.cores {
		m.cores[i] = &vorpalCore{
			id: i,
			pb: persist.NewPersistBuffer(env.Cfg.PBEntries),
			et: persist.NewEpochTable(i, env.Cfg.ETEntries),
		}
		m.persisted[i] = make([]uint64, env.Cfg.MCs)
	}
	return m
}

// Name returns "vorpal".
func (m *Vorpal) Name() string { return NameVorpal }

// Stats returns the shared stat set.
func (m *Vorpal) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the open epoch of the core.
func (m *Vorpal) CurrentTS(core int) uint64 { return m.cores[core].et.CurrentTS() }

// EpochCommitted: committed when persisted at every controller.
func (m *Vorpal) EpochCommitted(e persist.EpochID) bool {
	for _, p := range m.persisted[e.Thread] {
		if p < e.TS {
			return false
		}
	}
	// Persisted counters only advance when the epoch table retires the
	// epoch, which requires all earlier epochs too; see onPersisted.
	return true
}

// Store enqueues into the persist buffer; flushing is eager (the delaying
// happens controller-side).
func (m *Vorpal) Store(core int, line mem.Line, token mem.Token, done func()) {
	c := m.cores[core]
	m.tryEnqueue(c, line, token, done)
}

func (m *Vorpal) tryEnqueue(c *vorpalCore, line mem.Line, token mem.Token, done func()) {
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
	m.hc.vorpalTagBytes.Add(uint64(m.env.Cfg.Cores * 2)) // vector timestamp per store
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
func (m *Vorpal) Ofence(core int, done func()) {
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
	m.tryRetire(c, closed)
	//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
	done()
}

// Dfence waits for everything to persist at the controllers.
func (m *Vorpal) Dfence(core int, done func()) {
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
	m.tryRetire(c, closed)
	if c.et.AllCommitted() {
		//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
		done()
		return
	}
	if c.dfenceWaiter != nil {
		panic("vorpal: overlapping dfence waits on one core")
	}
	c.dfenceStart = m.env.Eng.Now()
	c.dfenceWaiter = done
	m.kickFlusher(c)
}

// Release closes the epoch (release persistency).
func (m *Vorpal) Release(core int, line mem.Line, done func()) {
	c := m.cores[core]
	if !c.et.Full() {
		relTS := c.et.CurrentTS()
		c.et.Advance()
		m.tryRetire(c, relTS)
	}
	done()
}

// Acquire needs no direct action.
func (m *Vorpal) Acquire(core int, line mem.Line) {}

// Conflict: in Vorpal cross-thread ordering flows through the vector
// clocks at the controllers; an acquire still splits the source epoch so
// its clock advances.
func (m *Vorpal) Conflict(core int, cf *cache.Conflict) {
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
		m.tryRetire(w, src.TS)
	}
	// The dependent epoch's writes will park at the controllers until
	// the broadcast shows the source persisted; record the edge for the
	// crash checker.
	c := m.cores[core]
	prev := c.et.CurrentTS()
	c.et.Advance()
	m.tryRetire(c, prev)
	dst := persist.EpochID{Thread: core, TS: c.et.CurrentTS()}
	//asaplint:ignore alloccheck legacy model map bounded by workload footprint; outside the zero-alloc gate
	m.deps[dst] = append(m.deps[dst], src)
	m.env.Ledger.DepCreated(src, dst)
	m.hc.depsRecorded.Inc()
}

// StartDrain gives end-of-trace dfence semantics.
func (m *Vorpal) StartDrain(core int, done func()) { m.Dfence(core, done) }

// PBOccupancy, PBBlocked, PBHasLine feed the sampler and WBB.
func (m *Vorpal) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

func (m *Vorpal) PBBlocked(core int) bool { return false } // issue is eager

func (m *Vorpal) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}

func (m *Vorpal) kickFlusher(c *vorpalCore) {
	if c.flushScheduled {
		return
	}
	c.flushScheduled = true
	m.ensureBroadcast()
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	m.env.Eng.After(1, func() {
		c.flushScheduled = false
		m.flushOne(c)
	})
}

// flushOne issues eagerly in FIFO order; the controller does the delaying.
func (m *Vorpal) flushOne(c *vorpalCore) {
	if c.pb.Inflight() >= m.env.Cfg.PBMaxInflight {
		return
	}
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	e := c.pb.NextWaiting(func(*persist.PBEntry) bool { return true })
	if e == nil {
		return
	}
	c.pb.MarkInflight(e, false)
	mcID := m.env.IL.Home(e.Line)
	fl := vorpalFlush{
		line: e.Line, token: e.Token,
		epoch: persist.EpochID{Thread: c.id, TS: e.TS},
		pbID:  e.ID, core: c.id,
	}
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	m.env.Eng.After(m.env.Cfg.FlushLat, func() { m.arrive(mcID, fl) })
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		m.env.Eng.After(flushIssuePace, func() { m.flushOne(c) })
	}
}

// arrive parks or persists a flush at controller mcID.
func (m *Vorpal) arrive(mcID int, fl vorpalFlush) {
	if m.safeToPersist(fl.epoch) {
		m.persistNow(mcID, fl)
		return
	}
	fl.parked = m.env.Eng.Now()
	m.pending[mcID] = append(m.pending[mcID], fl)
	m.hc.vorpalParked.Inc()
}

// safeToPersist: all earlier epochs of the thread — and every recorded
// cross-thread dependency — are visible as persisted everywhere (per the
// last clock broadcast).
func (m *Vorpal) safeToPersist(e persist.EpochID) bool {
	if m.visible[e.Thread] < e.TS-1 {
		return false
	}
	for _, src := range m.deps[e] {
		if m.visible[src.Thread] < src.TS {
			return false
		}
	}
	return true
}

func (m *Vorpal) persistNow(mcID int, fl vorpalFlush) {
	mc := m.env.MCs[mcID]
	mc.Receive(persist.FlushPacket{Line: fl.line, Token: fl.token, Epoch: fl.epoch},
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		func(res persist.FlushResult) {
			if res != persist.FlushAck {
				panic("vorpal: controller NACKed a flush")
			}
			m.onPersisted(mcID, fl)
		})
}

func (m *Vorpal) onPersisted(mcID int, fl vorpalFlush) {
	c := m.cores[fl.core]
	e, ok := c.pb.Ack(fl.pbID)
	if !ok {
		panic("vorpal: ACK for unknown persist buffer entry")
	}
	if ent, ok := c.et.Get(e.TS); ok {
		ent.Unacked--
		m.tryRetire(c, e.TS)
	}
	if len(c.storeWaiters) > 0 {
		w := c.storeWaiters[0]
		c.storeWaiters = c.storeWaiters[1:]
		w()
	}
	m.kickFlusher(c)
}

// tryRetire marks an epoch persisted once closed, drained and in order.
func (m *Vorpal) tryRetire(c *vorpalCore, ts uint64) {
	ent, ok := c.et.Get(ts)
	if !ok || ent.Committed {
		return
	}
	if !ent.Closed || ent.Unacked != 0 || !c.et.PrevCommitted(ts) {
		return
	}
	ent.Committed = true
	for mcID := range m.persisted[c.id] {
		m.persisted[c.id][mcID] = ts
	}
	m.hc.epochsCommitted.Inc()
	m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: ts})
	c.et.Retire(ts)
	m.tryRetire(c, ts+1)
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
}

// ensureBroadcast starts the periodic inter-controller clock exchange.
func (m *Vorpal) ensureBroadcast() {
	if m.broadcastOn {
		return
	}
	m.broadcastOn = true
	var tick func()
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	tick = func() {
		m.hc.vorpalBroadcasts.Inc()
		// Update every thread's globally visible clock.
		for t := range m.visible {
			min := ^uint64(0)
			for _, p := range m.persisted[t] {
				if p < min {
					min = p
				}
			}
			m.visible[t] = min
		}
		// Release parked flushes that became safe.
		for mcID := range m.pending {
			var rest []vorpalFlush
			for _, fl := range m.pending[mcID] {
				if m.safeToPersist(fl.epoch) {
					m.hc.vorpalParkCycles.Add(uint64(m.env.Eng.Now() - fl.parked))
					m.persistNow(mcID, fl)
				} else {
					rest = append(rest, fl)
				}
			}
			m.pending[mcID] = rest
		}
		if m.busy() {
			m.env.Eng.After(vorpalBroadcastInterval, tick)
		} else {
			// Nothing in flight: stop ticking so the engine can drain;
			// kickFlusher restarts the broadcast on new work.
			m.broadcastOn = false
		}
	}
	m.env.Eng.After(vorpalBroadcastInterval, tick)
}

// busy reports whether any controller or persist buffer holds work.
func (m *Vorpal) busy() bool {
	for _, pend := range m.pending {
		if len(pend) > 0 {
			return true
		}
	}
	for _, c := range m.cores {
		if !c.pb.Empty() {
			return true
		}
	}
	return false
}

var _ Model = (*Vorpal)(nil)
