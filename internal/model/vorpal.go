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
	cores []*bufCPU

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
	// arrivals are flushes on their FlushLat trip to a controller.
	arrivals persist.FIFO[vorpalArrival]
}

// vorpalArrival is one flush in transit to controller mc.
type vorpalArrival struct {
	mc int
	fl vorpalFlush
}

// Typed-event kinds dispatched through Vorpal.RunEvent.
const (
	vorpalEvKick   = iota // flusher wake-up for core arg (clears flushScheduled)
	vorpalEvPace          // next paced flush issue for core arg
	vorpalEvArrive        // the oldest in-transit flush reaches its controller
	vorpalEvTick          // periodic inter-controller clock broadcast
)

type vorpalFlush struct {
	line   mem.Line
	token  mem.Token
	epoch  persist.EpochID
	pbID   uint64
	core   int
	parked sim.Cycles
}

// vorpalBroadcastInterval is the inter-controller clock broadcast period;
// the paper notes it bounds forward progress.
const vorpalBroadcastInterval sim.Cycles = 500

func newVorpal(env Env) *Vorpal {
	m := &Vorpal{env: env, hc: newHotCounters(env.St)}
	m.cores = make([]*bufCPU, env.Cfg.Cores)
	m.persisted = make([][]uint64, env.Cfg.Cores)
	m.visible = make([]uint64, env.Cfg.Cores)
	m.pending = make([][]vorpalFlush, env.Cfg.MCs)
	m.deps = make(map[persist.EpochID][]persist.EpochID)
	for i := range m.cores {
		c := newBufCPU(i, env)
		m.cores[i] = &c
		m.persisted[i] = make([]uint64, env.Cfg.MCs)
	}
	return m
}

// RunEvent dispatches the model's typed events.
func (m *Vorpal) RunEvent(kind int, arg uint64) {
	switch kind {
	case vorpalEvKick:
		c := m.cores[arg]
		c.flushScheduled = false
		m.flushOne(c)
	case vorpalEvPace:
		m.flushOne(m.cores[arg])
	case vorpalEvArrive:
		a := m.arrivals.Pop()
		m.arrive(a.mc, a.fl)
	case vorpalEvTick:
		m.tick()
	default:
		panic("vorpal: unknown event kind")
	}
}

// FlushReply receives a controller's ACK for a released flush; arg packs
// the persist buffer entry ID above the core's low byte.
func (m *Vorpal) FlushReply(arg uint64, res persist.FlushResult) {
	if res != persist.FlushAck {
		panic("vorpal: controller NACKed a flush")
	}
	m.onPersisted(int(arg&0xFF), arg>>8)
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
func (m *Vorpal) Store(core int, line mem.Line, token mem.Token) {
	c := m.cores[core]
	if !c.enqueue(&m.env, &m.hc, line, token) {
		c.store.park(line, token, m.env.Eng.Now())
		m.kickFlusher(c)
		return
	}
	m.hc.vorpalTagBytes.Add(uint64(m.env.Cfg.Cores * 2)) // vector timestamp per store
	m.kickFlusher(c)
	m.env.Resume.Resume(core)
}

// Ofence closes the epoch.
func (m *Vorpal) Ofence(core int) {
	c := m.cores[core]
	if c.et.Full() {
		c.fence = fenceWaiter{parked: true, began: m.env.Eng.Now()}
		return
	}
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.tryRetire(c, closed)
	m.env.Resume.Resume(core)
}

// Dfence waits for everything to persist at the controllers.
func (m *Vorpal) Dfence(core int) {
	c := m.cores[core]
	if c.et.Full() {
		c.fence = fenceWaiter{parked: true, began: m.env.Eng.Now(), dfence: true}
		return
	}
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.tryRetire(c, closed)
	if c.et.AllCommitted() {
		m.env.Resume.Resume(core)
		return
	}
	c.dfence.park(m.env.Eng.Now())
	m.kickFlusher(c)
}

// Release closes the epoch (release persistency).
func (m *Vorpal) Release(core int, line mem.Line) {
	c := m.cores[core]
	if !c.et.Full() {
		relTS := c.et.CurrentTS()
		c.et.Advance()
		m.tryRetire(c, relTS)
	}
	m.env.Resume.Resume(core)
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
	//asaplint:ignore alloccheck related-work model map bounded by workload footprint; outside the zero-alloc gate
	m.deps[dst] = append(m.deps[dst], src)
	m.env.Ledger.DepCreated(src, dst)
	m.hc.depsRecorded.Inc()
}

// StartDrain gives end-of-trace dfence semantics.
func (m *Vorpal) StartDrain(core int) { m.Dfence(core) }

// PBOccupancy, PBBlocked, PBHasLine feed the sampler and WBB.
func (m *Vorpal) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

func (m *Vorpal) PBBlocked(core int) bool { return false } // issue is eager

func (m *Vorpal) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}

func (m *Vorpal) kickFlusher(c *bufCPU) {
	if c.flushScheduled {
		return
	}
	c.flushScheduled = true
	m.ensureBroadcast()
	m.env.Eng.AfterOp(1, m, vorpalEvKick, uint64(c.id))
}

// flushOne issues eagerly in FIFO order; the controller does the delaying.
func (m *Vorpal) flushOne(c *bufCPU) {
	if c.pb.Inflight() >= m.env.Cfg.PBMaxInflight {
		return
	}
	e := c.pb.NextWaitingAny()
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
	m.arrivals.Push(vorpalArrival{mc: mcID, fl: fl})
	m.env.Eng.AfterOp(m.env.Cfg.FlushLat, m, vorpalEvArrive, 0)
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		m.env.Eng.AfterOp(flushIssuePace, m, vorpalEvPace, uint64(c.id))
	}
}

// arrive parks or persists a flush at controller mcID.
func (m *Vorpal) arrive(mcID int, fl vorpalFlush) {
	if m.safeToPersist(fl.epoch) {
		m.persistNow(mcID, fl)
		return
	}
	fl.parked = m.env.Eng.Now()
	m.pending[mcID] = append(m.pending[mcID], fl) //asaplint:ignore alloccheck parked flushes bounded by the persist buffers' capacity; the backing array is reused
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

// persistNow hands a flush to controller mcID; the ACK comes back through
// FlushReply.
func (m *Vorpal) persistNow(mcID int, fl vorpalFlush) {
	if fl.pbID >= 1<<56 {
		panic("vorpal: persist buffer entry id does not fit a reply arg")
	}
	pkt := persist.FlushPacket{Line: fl.line, Token: fl.token, Epoch: fl.epoch}
	m.env.MCs[mcID].ReceiveOp(pkt, m, fl.pbID<<8|uint64(fl.core))
}

func (m *Vorpal) onPersisted(core int, pbID uint64) {
	c := m.cores[core]
	e, ok := c.pb.Ack(pbID)
	if !ok {
		panic("vorpal: ACK for unknown persist buffer entry")
	}
	if ent, ok := c.et.Get(e.TS); ok {
		ent.Unacked--
		m.tryRetire(c, e.TS)
	}
	c.store.retry(m, c.id, &m.hc, m.env.Eng.Now())
	m.kickFlusher(c)
}

// tryRetire marks an epoch persisted once closed, drained and in order.
func (m *Vorpal) tryRetire(c *bufCPU, ts uint64) {
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
	c.wakeFences(m, &m.env, &m.hc)
}

// ensureBroadcast starts the periodic inter-controller clock exchange.
func (m *Vorpal) ensureBroadcast() {
	if m.broadcastOn {
		return
	}
	m.broadcastOn = true
	m.env.Eng.AfterOp(vorpalBroadcastInterval, m, vorpalEvTick, 0)
}

// tick is one clock broadcast: publish every thread's globally visible
// clock, release the parked flushes that became safe, and re-arm while
// work remains.
func (m *Vorpal) tick() {
	m.hc.vorpalBroadcasts.Inc()
	for t := range m.visible {
		min := ^uint64(0)
		for _, p := range m.persisted[t] {
			if p < min {
				min = p
			}
		}
		m.visible[t] = min
	}
	for mcID, pend := range m.pending {
		rest := pend[:0]
		for _, fl := range pend {
			if m.safeToPersist(fl.epoch) {
				m.hc.vorpalParkCycles.Add(uint64(m.env.Eng.Now() - fl.parked))
				m.persistNow(mcID, fl)
			} else {
				rest = append(rest, fl) //asaplint:ignore alloccheck in-place filter: rest never outgrows pend, whose backing array it shares
			}
		}
		m.pending[mcID] = rest
	}
	if m.busy() {
		m.env.Eng.AfterOp(vorpalBroadcastInterval, m, vorpalEvTick, 0)
	} else {
		// Nothing in flight: stop ticking so the engine can drain;
		// kickFlusher restarts the broadcast on new work.
		m.broadcastOn = false
	}
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
