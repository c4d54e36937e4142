package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// epochCore is the buffered epoch-persistence machine HOPS, LB++, DPO and
// LRP share (§VII-E, Table IV): a per-core persist buffer (PB) and epoch
// table (ET), a paced flusher that issues only the oldest epoch's writes
// (conservative flushing, so every flush is safe), and a commit loop that
// retires an epoch once it is closed, fully ACKed, dependency-free and its
// predecessor committed. A model is an epochPolicy on this core plus two
// declarative switches (lazy, broadcast); DESIGN.md "One epoch core"
// tabulates the per-model choices.
//
// Every continuation is typed: flusher wake-ups and commit notifies are
// engine events with the model as receiver, flush ACKs come back through
// persist.FlushReplier, and a stalled operation parks as plain data in a
// waiter struct until the model resumes its core.
type epochCore struct {
	env   Env
	hc    hotCounters
	pol   epochPolicy
	cores []*epochCPU
	// committedTS[t] is thread t's newest committed epoch: HOPS's global
	// TS register, the persisted frontier the others observe through
	// coherence.
	committedTS []uint64

	// lazy (LB++): an epoch flushes only once closed, so stores do not
	// kick the flusher and fences do.
	lazy bool
	// broadcast (DPO): a commit with dependents is one snooped broadcast,
	// counted in dpoBroadcasts.
	broadcast bool
}

// epochPolicy is the behaviour a buffered model adds to epochCore.
type epochPolicy interface {
	// RunEvent dispatches the model's typed events; models without events
	// of their own use epochCore's.
	sim.EventOp
	// blocked is called when the oldest epoch cannot flush because a
	// cross-thread dependency is unresolved.
	blocked(c *epochCPU)
	// notified delivers a commit notify: the source epoch that dst
	// waited on committed MsgLat cycles ago.
	notified(dst persist.EpochID)
}

// Typed-event kinds dispatched through epochCore.RunEvent. Models with
// events of their own number them from epochEvNext.
const (
	epochEvKick   = iota // flusher wake-up for core arg (clears flushScheduled)
	epochEvPace          // next paced flush issue for core arg
	epochEvNotify        // commit notify; arg is the packed dependent EpochID
	epochEvNext
)

// bufCPU is one core's persist buffer, epoch table and parked operations:
// the per-core state of every model with both (the epoch core's models,
// ASAP and Vorpal). The core has one operation in flight, so one waiter of
// each kind suffices.
type bufCPU struct {
	id int
	pb *persist.PersistBuffer
	et *persist.EpochTable

	flushScheduled bool
	store          storeWaiter  // a store that found the persist buffer full
	fence          fenceWaiter  // an ofence or dfence that found the epoch table full
	dfence         dfenceWaiter // a dfence (or drain) waiting for every epoch to commit
}

// The waiters hold a parked operation as plain data; the machine knows
// which operation a core has in flight, so finishing one is a Resume of
// the core.
type storeWaiter struct {
	parked bool
	line   mem.Line
	token  mem.Token
	began  sim.Cycles
}

type fenceWaiter struct {
	parked bool
	began  sim.Cycles
	dfence bool
}

type dfenceWaiter struct {
	parked bool
	began  sim.Cycles
}

// storer and fencer rerun a parked operation through its model.
type storer interface {
	Store(core int, line mem.Line, token mem.Token)
}

type fencer interface {
	Ofence(core int)
	Dfence(core int)
}

func newBufCPU(id int, env Env) bufCPU {
	return bufCPU{
		id: id,
		pb: persist.NewPersistBuffer(env.Cfg.PBEntries),
		et: persist.NewEpochTable(id, env.Cfg.ETEntries),
	}
}

// enqueue buffers a store in the core's open epoch, reporting false when
// the buffer is full.
func (c *bufCPU) enqueue(env *Env, hc *hotCounters, line mem.Line, token mem.Token) bool {
	ts := c.et.CurrentTS()
	coalesced, ok := c.pb.Enqueue(line, token, ts)
	if !ok {
		return false
	}
	hc.entriesInserted.Inc()
	if coalesced {
		hc.pbCoalesced.Inc()
	} else {
		c.et.Current().Unacked++
	}
	env.Ledger.RecordWrite(persist.EpochID{Thread: c.id, TS: ts}, line, token)
	return true
}

// park parks a store on a full persist buffer; the next ACK retries it.
func (w *storeWaiter) park(line mem.Line, token mem.Token, now sim.Cycles) {
	if w.parked {
		panic("model: overlapping store stalls on one core")
	}
	*w = storeWaiter{parked: true, line: line, token: token, began: now}
}

// retry reruns the parked store, if any, through s after an ACK freed a
// buffer slot, charging the stall to cyclesStalled.
func (w *storeWaiter) retry(s storer, core int, hc *hotCounters, now sim.Cycles) {
	p := *w
	if !p.parked {
		return
	}
	*w = storeWaiter{}
	hc.cyclesStalled.Add(uint64(now - p.began))
	s.Store(core, p.line, p.token)
}

// park parks a dfence until every epoch of the core committed.
func (w *dfenceWaiter) park(now sim.Cycles) {
	if w.parked {
		panic("model: overlapping dfence waits on one core")
	}
	*w = dfenceWaiter{parked: true, began: now}
}

// finish completes the parked dfence of core, charging the wait to
// dfenceStalled.
func (w *dfenceWaiter) finish(env *Env, core int, hc *hotCounters) {
	now := env.Eng.Now()
	hc.dfenceStalled.Add(uint64(now - w.began))
	*w = dfenceWaiter{}
	env.Resume.Resume(core)
}

// wakeFences runs after a commit: it reruns a parked fence through f once
// the epoch table has room, then completes a parked dfence once every
// epoch committed.
func (c *bufCPU) wakeFences(f fencer, env *Env, hc *hotCounters) {
	if w := c.fence; w.parked && !c.et.Full() {
		c.fence = fenceWaiter{}
		hc.ofenceStalled.Add(uint64(env.Eng.Now() - w.began))
		if w.dfence {
			f.Dfence(c.id)
		} else {
			f.Ofence(c.id)
		}
	}
	if c.dfence.parked && c.et.AllCommitted() {
		c.dfence.finish(env, c.id, hc)
	}
}

// epochCPU is one core of the epoch core.
type epochCPU struct {
	bufCPU
	m *epochCore // back-pointer for the FlushReplier implementation
}

// packEpochArg squeezes an EpochID into a typed event's uint64 arg: thread
// in the low byte (config caps cores at 64), timestamp above. The guard
// trips long before a real run could reach 2^56 epochs.
func packEpochArg(e persist.EpochID) uint64 {
	if uint64(e.Thread) > 0xFF || e.TS >= 1<<56 {
		panic("model: epoch id does not fit a packed event arg")
	}
	return e.TS<<8 | uint64(e.Thread)
}

func unpackEpochArg(arg uint64) persist.EpochID {
	return persist.EpochID{Thread: int(arg & 0xFF), TS: arg >> 8}
}

func (m *epochCore) init(env Env, pol epochPolicy) {
	m.env = env
	m.hc = newHotCounters(env.St)
	m.pol = pol
	m.committedTS = make([]uint64, env.Cfg.Cores)
	m.cores = make([]*epochCPU, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &epochCPU{bufCPU: newBufCPU(i, env), m: m}
	}
}

// RunEvent dispatches the core's typed events.
func (m *epochCore) RunEvent(kind int, arg uint64) {
	switch kind {
	case epochEvKick:
		c := m.cores[arg]
		c.flushScheduled = false
		m.flushOne(c)
	case epochEvPace:
		m.flushOne(m.cores[arg])
	case epochEvNotify:
		m.pol.notified(unpackEpochArg(arg))
	default:
		panic("model: unknown epoch-core event kind")
	}
}

// FlushReply receives the controller's answer for the PB entry arg. The
// core issues only safe flushes, which a controller always ACKs.
func (c *epochCPU) FlushReply(arg uint64, res persist.FlushResult) {
	if res != persist.FlushAck {
		panic("model: controller NACKed a safe flush")
	}
	c.m.onAck(c, arg)
}

// Stats returns the shared stat set.
func (m *epochCore) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the open epoch of the core.
func (m *epochCore) CurrentTS(core int) uint64 { return m.cores[core].et.CurrentTS() }

// EpochCommitted reports whether epoch e has committed.
func (m *epochCore) EpochCommitted(e persist.EpochID) bool {
	return m.committedTS[e.Thread] >= e.TS
}

// Store enqueues into the persist buffer, stalling on a full buffer.
func (m *epochCore) Store(core int, line mem.Line, token mem.Token) {
	c := m.cores[core]
	if !c.enqueue(&m.env, &m.hc, line, token) {
		c.store.park(line, token, m.env.Eng.Now())
		m.kick(c)
		return
	}
	if !m.lazy {
		m.kick(c)
	}
	m.env.Resume.Resume(core)
}

// Ofence closes the epoch, stalling while the epoch table is full.
func (m *epochCore) Ofence(core int) {
	c := m.cores[core]
	if c.et.Full() {
		c.fence = fenceWaiter{parked: true, began: m.env.Eng.Now()}
		return
	}
	m.closeEpoch(c)
	m.env.Resume.Resume(core)
}

// Dfence closes the epoch and waits until every epoch of the core
// committed.
func (m *epochCore) Dfence(core int) {
	c := m.cores[core]
	if c.et.Full() {
		c.fence = fenceWaiter{parked: true, began: m.env.Eng.Now(), dfence: true}
		return
	}
	m.closeEpoch(c)
	if c.et.AllCommitted() {
		m.env.Resume.Resume(core)
		return
	}
	c.dfence.park(m.env.Eng.Now())
	m.kick(c)
}

// StartDrain gives end-of-trace dfence semantics.
func (m *epochCore) StartDrain(core int) { m.Dfence(core) }

// Acquire needs no direct action; Conflict carries the dependency.
func (m *epochCore) Acquire(core int, line mem.Line) {}

// closeEpoch is a fence's epoch close; under lazy flushing it is also
// what makes the closed epoch's writes flushable.
func (m *epochCore) closeEpoch(c *epochCPU) {
	m.advance(c)
	if m.lazy {
		m.kick(c)
	}
}

// advance closes the open epoch and tries to commit it.
func (m *epochCore) advance(c *epochCPU) {
	closed := c.et.CurrentTS()
	c.et.Advance()
	m.tryCommit(c, closed)
}

// closeIfRoom is the release-persistency Release: the release closes the
// epoch unless the table is full (a release never stalls).
func (m *epochCore) closeIfRoom(c *epochCPU) {
	if !c.et.Full() {
		m.advance(c)
	}
}

// source applies a persistency model's dependency rule to a coherence
// conflict. Under release persistency only an acquire synchronizing with
// an uncommitted release epoch creates one; under epoch persistency any
// remote dirty-line transfer does, on the writer's open epoch (§IV-E).
func (m *epochCore) source(cf *cache.Conflict, rp bool) (persist.EpochID, bool) {
	if rp {
		if !cf.AcquireOnRelease {
			return persist.EpochID{}, false
		}
		src := persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
		return src, !m.EpochCommitted(src)
	}
	if !cf.Remote {
		return persist.EpochID{}, false
	}
	return persist.EpochID{Thread: cf.Writer, TS: m.cores[cf.Writer].et.CurrentTS()}, true
}

// splitSource closes the dependency's source epoch if it is still open.
// The split is unconditional: leaving it open could deadlock two
// mutually dependent blocked cores (Lemma 0.1; see ASAP.addDependency).
func (m *epochCore) splitSource(src persist.EpochID, kick bool) {
	w := m.cores[src.Thread]
	if w.et.CurrentTS() == src.TS {
		m.advance(w)
		if kick {
			m.kick(w)
		}
	}
}

// depend splits both sides of a dependency of core on src and, unless src
// committed meanwhile, records it on the dependent's new epoch. notify
// also lists the dependent on the source epoch, which notifies it at
// commit. It reports whether a dependency was recorded.
func (m *epochCore) depend(core int, src persist.EpochID, kickSource, notify bool) bool {
	m.splitSource(src, kickSource)
	c := m.cores[core]
	m.advance(c)
	if m.EpochCommitted(src) {
		return false
	}
	cur := c.et.Current()
	cur.Deps = append(cur.Deps, src) //asaplint:ignore alloccheck conflict-only path; the entry recycles its Deps backing array
	dst := persist.EpochID{Thread: core, TS: cur.TS}
	if notify {
		m.addDependent(src, dst)
	}
	m.env.Ledger.DepCreated(src, dst)
	m.hc.depsRecorded.Inc()
	return true
}

// addDependent lists dst for a notify when the uncommitted epoch src
// commits.
func (m *epochCore) addDependent(src, dst persist.EpochID) {
	ent, _ := m.cores[src.Thread].et.Get(src.TS)
	ent.Dependents = append(ent.Dependents, dst) //asaplint:ignore alloccheck conflict-only path; the entry recycles its Dependents backing array
}

// resolve clears one dependency of epoch dst.
func (m *epochCore) resolve(dst persist.EpochID) {
	c := m.cores[dst.Thread]
	if ent, ok := c.et.Get(dst.TS); ok {
		ent.Resolved++
		m.tryCommit(c, dst.TS)
	}
	m.kick(c)
}

// PBOccupancy feeds the sampler.
func (m *epochCore) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

// PBBlocked: the buffer holds writes but conservative flushing forbids
// issuing any — the oldest epoch is blocked, or all its writes are in
// flight while younger epochs wait (Figure 3).
func (m *epochCore) PBBlocked(core int) bool {
	c := m.cores[core]
	if c.pb.Empty() {
		return false
	}
	return m.nextFlushable(c) == nil && c.pb.Inflight() == 0
}

// PBHasLine reports whether the core's persist buffer holds the line.
func (m *epochCore) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}

// nextFlushable returns the next waiting write of the oldest uncommitted
// epoch, provided that epoch's dependencies are resolved (and, when lazy,
// that it is closed). Nothing younger may flush.
func (m *epochCore) nextFlushable(c *epochCPU) *persist.PBEntry {
	oldest := c.et.OldestTS()
	if ent, ok := c.et.Get(oldest); ok {
		if !ent.DepsResolved() {
			m.pol.blocked(c)
			return nil
		}
		if m.lazy && !ent.Closed {
			return nil
		}
	}
	return c.pb.NextWaitingIn(oldest)
}

func (m *epochCore) kick(c *epochCPU) {
	if c.flushScheduled {
		return
	}
	c.flushScheduled = true
	m.env.Eng.AfterOp(1, m.pol, epochEvKick, uint64(c.id))
}

// flushOne issues at most one flush, then reschedules itself while the
// inflight cap allows (one flush port per buffer, paced at flushIssuePace).
func (m *epochCore) flushOne(c *epochCPU) {
	if c.pb.Inflight() >= m.env.Cfg.PBMaxInflight {
		return // an ACK kicks the flusher again
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
	m.env.MCs[m.env.IL.Home(e.Line)].SendFlushOp(pkt, c, e.ID, false)
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		m.env.Eng.AfterOp(flushIssuePace, m.pol, epochEvPace, uint64(c.id))
	}
}

func (m *epochCore) onAck(c *epochCPU, id uint64) {
	e, ok := c.pb.Ack(id)
	if !ok {
		panic("model: ACK for unknown persist buffer entry")
	}
	if ent, ok := c.et.Get(e.TS); ok {
		ent.Unacked--
		m.tryCommit(c, e.TS)
	}
	c.store.retry(m, c.id, &m.hc, m.env.Eng.Now())
	m.kick(c)
}

// tryCommit commits epoch ts once it is closed, fully ACKed, dependency
// free and its predecessor committed; it then publishes the commit,
// notifies dependents, and wakes whatever the commit unblocks.
func (m *epochCore) tryCommit(c *epochCPU, ts uint64) {
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
	m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: ts})
	c.et.Retire(ts)
	// The retired entry keeps its Dependents until the next Advance.
	if len(ent.Dependents) > 0 {
		if m.broadcast {
			m.hc.dpoBroadcasts.Inc()
		}
		for _, dst := range ent.Dependents {
			m.env.Eng.AfterOp(m.env.Cfg.MsgLat, m.pol, epochEvNotify, packEpochArg(dst))
		}
	}

	m.tryCommit(c, ts+1)
	c.wakeFences(m, &m.env, &m.hc)
	m.kick(c)
}
