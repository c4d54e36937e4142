package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// StrandModel is the optional extension for models that understand strand
// persistency: the machine forwards trace strand boundaries (OpStrand) to
// Strand. Models without it treat strands as ordinary program order, which
// is a conservative superset of the required ordering.
type StrandModel interface {
	Strand(core int)
}

// StrandWeaver implements strand persistency (Gogte et al., ISCA'20) as the
// paper characterizes it in §VII-E: a thread's execution divides into
// *strands*; persists in different strands have no ordering constraint, so
// their epochs flush concurrently — "it performs better than HOPS as it
// allows epochs from different strands to be flushed concurrently" — while
// within a strand flushing is conservative (epoch by epoch), and
// cross-strand/cross-thread dependencies from strong persist atomicity are
// also handled conservatively. The paper flags integrating ASAP with strand
// persistency as follow-on work; this model provides the StrandWeaver
// baseline for that comparison (experiment abl_strands).
type StrandWeaver struct {
	env   Env
	hc    hotCounters
	cores []*swCore
	// waiters[src] lists dependent epochs notified when src commits.
	waiters   map[persist.EpochID][]persist.EpochID
	committed map[persist.EpochID]bool
}

type swCore struct {
	id int
	pb *persist.PersistBuffer

	strands []*swStrand
	cur     int // active strand index
	nextTS  uint64

	flushScheduled bool
	storeWaiters   []func()
	dfenceWaiter   func()
	dfenceStart    sim.Cycles
}

type swStrand struct {
	epochs []*swEpoch // FIFO: oldest first; last entry is open
}

type swEpoch struct {
	ts       uint64 // globally unique per core across strands
	unacked  int
	closed   bool
	deps     []persist.EpochID
	resolved int
}

func (e *swEpoch) depsResolved() bool { return e.resolved >= len(e.deps) }

func newStrandWeaver(env Env) *StrandWeaver {
	m := &StrandWeaver{
		env:       env,
		hc:        newHotCounters(env.St),
		waiters:   make(map[persist.EpochID][]persist.EpochID),
		committed: make(map[persist.EpochID]bool),
	}
	m.cores = make([]*swCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = newSWCore(i, env.Cfg.PBEntries)
	}
	return m
}

func newSWCore(id, pbEntries int) *swCore {
	c := &swCore{id: id, pb: persist.NewPersistBuffer(pbEntries), nextTS: 1}
	c.strands = []*swStrand{{epochs: []*swEpoch{{ts: 1}}}}
	c.nextTS = 2
	return c
}

// Name returns "strandweaver".
func (m *StrandWeaver) Name() string { return NameStrandWeaver }

// Stats returns the shared stat set.
func (m *StrandWeaver) Stats() *stats.Set { return m.env.St }

// Strand opens a fresh strand; its epochs are unordered against the other
// strands of the thread.
func (m *StrandWeaver) Strand(core int) {
	c := m.cores[core]
	// Close the current strand's open epoch so it can commit.
	m.closeOpen(c, c.strands[c.cur])
	//asaplint:ignore alloccheck legacy model bookkeeping growth, bounded by workload footprint; outside the zero-alloc gate
	c.strands = append(c.strands, &swStrand{epochs: []*swEpoch{{ts: c.nextTS}}})
	c.nextTS++
	c.cur = len(c.strands) - 1
	m.hc.swStrands.Inc()
	m.tryCommitAll(c)
}

func (c *swCore) open() *swEpoch {
	s := c.strands[c.cur]
	return s.epochs[len(s.epochs)-1]
}

// epochByTS finds a live epoch by timestamp.
func (c *swCore) epochByTS(ts uint64) (*swStrand, *swEpoch) {
	for _, s := range c.strands {
		for _, e := range s.epochs {
			if e.ts == ts {
				return s, e
			}
		}
	}
	return nil, nil
}

// CurrentTS returns the open epoch of the active strand.
func (m *StrandWeaver) CurrentTS(core int) uint64 { return m.cores[core].open().ts }

// EpochCommitted reports whether the epoch retired. Strand epochs of one
// thread are NOT totally ordered, so the crash checker's same-thread prefix
// assumption does not apply to this model (see DESIGN.md).
func (m *StrandWeaver) EpochCommitted(e persist.EpochID) bool { return m.committed[e] }

// Store buffers the write in the active strand's open epoch.
func (m *StrandWeaver) Store(core int, line mem.Line, token mem.Token, done func()) {
	c := m.cores[core]
	m.tryEnqueue(c, line, token, done)
}

func (m *StrandWeaver) tryEnqueue(c *swCore, line mem.Line, token mem.Token, done func()) {
	e := c.open()
	coalesced, ok := c.pb.Enqueue(line, token, e.ts)
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
		e.unacked++
	}
	m.env.Ledger.RecordWrite(persist.EpochID{Thread: c.id, TS: e.ts}, line, token)
	m.kickFlusher(c)
	//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
	done()
}

// closeOpen closes the open epoch of strand s and opens its successor.
func (m *StrandWeaver) closeOpen(c *swCore, s *swStrand) {
	open := s.epochs[len(s.epochs)-1]
	if open.closed {
		return
	}
	open.closed = true
	//asaplint:ignore alloccheck legacy model bookkeeping growth, bounded by workload footprint; outside the zero-alloc gate
	s.epochs = append(s.epochs, &swEpoch{ts: c.nextTS})
	c.nextTS++
}

// Ofence is a strand-local persist barrier.
func (m *StrandWeaver) Ofence(core int, done func()) {
	c := m.cores[core]
	m.closeOpen(c, c.strands[c.cur])
	m.tryCommitAll(c)
	//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
	done()
}

// Dfence waits until every strand has drained.
func (m *StrandWeaver) Dfence(core int, done func()) {
	c := m.cores[core]
	for _, s := range c.strands {
		m.closeOpen(c, s)
	}
	m.tryCommitAll(c)
	if m.drained(c) {
		//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
		done()
		return
	}
	if c.dfenceWaiter != nil {
		panic("strandweaver: overlapping dfence waits on one core")
	}
	c.dfenceStart = m.env.Eng.Now()
	c.dfenceWaiter = done
	m.kickFlusher(c)
}

// drained: every strand holds only its single empty open epoch.
func (m *StrandWeaver) drained(c *swCore) bool {
	for _, s := range c.strands {
		for _, e := range s.epochs {
			if e.closed || e.unacked > 0 {
				return false
			}
		}
	}
	return true
}

// Release closes the active strand's epoch (one-sided barrier).
func (m *StrandWeaver) Release(core int, line mem.Line, done func()) {
	c := m.cores[core]
	m.closeOpen(c, c.strands[c.cur])
	m.tryCommitAll(c)
	done()
}

// Acquire needs no direct action; Conflict carries the dependency.
func (m *StrandWeaver) Acquire(core int, line mem.Line) {}

// Conflict: cross-thread (and hence cross-strand) dependencies are handled
// conservatively — the dependent epoch's strand blocks until the source
// epoch commits.
func (m *StrandWeaver) Conflict(core int, cf *cache.Conflict) {
	if !cf.AcquireOnRelease {
		return
	}
	src := persist.EpochID{Thread: cf.Writer, TS: cf.WriterTS}
	if m.committed[src] {
		return
	}
	m.hc.interTEpochConflict.Inc()
	w := m.cores[src.Thread]
	if _, we := w.epochByTS(src.TS); we != nil && !we.closed {
		m.closeOpen(w, mustStrand(w, src.TS))
		m.tryCommitAll(w)
	}
	c := m.cores[core]
	m.closeOpen(c, c.strands[c.cur])
	dst := c.open()
	if !m.committed[src] {
		//asaplint:ignore alloccheck legacy model bookkeeping growth, bounded by workload footprint; outside the zero-alloc gate
		dst.deps = append(dst.deps, src)
		id := persist.EpochID{Thread: core, TS: dst.ts}
		//asaplint:ignore alloccheck legacy model map bounded by workload footprint; outside the zero-alloc gate
		m.waiters[src] = append(m.waiters[src], id)
		m.env.Ledger.DepCreated(src, id)
		m.hc.depsRecorded.Inc()
	}
	m.tryCommitAll(c)
}

func mustStrand(c *swCore, ts uint64) *swStrand {
	s, _ := c.epochByTS(ts)
	if s == nil {
		panic("strandweaver: strand for epoch not found")
	}
	return s
}

// StartDrain gives end-of-trace dfence semantics.
func (m *StrandWeaver) StartDrain(core int, done func()) { m.Dfence(core, done) }

// PBOccupancy, PBBlocked, PBHasLine feed the sampler and WBB.
func (m *StrandWeaver) PBOccupancy(core int) int { return m.cores[core].pb.Len() }

func (m *StrandWeaver) PBBlocked(core int) bool {
	c := m.cores[core]
	if c.pb.Empty() {
		return false
	}
	return c.pb.NextWaiting(m.eligible(c)) == nil && c.pb.Inflight() == 0
}

func (m *StrandWeaver) PBHasLine(core int, line mem.Line) bool {
	return m.cores[core].pb.HasLine(line)
}

// eligible: within each strand only the oldest epoch flushes (conservative),
// but all strands flush concurrently — the design's point.
func (m *StrandWeaver) eligible(c *swCore) func(*persist.PBEntry) bool {
	heads := make(map[uint64]bool)
	for _, s := range c.strands {
		if len(s.epochs) == 0 {
			continue
		}
		head := s.epochs[0]
		if head.depsResolved() {
			heads[head.ts] = true
		}
	}
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	return func(e *persist.PBEntry) bool { return heads[e.TS] }
}

func (m *StrandWeaver) kickFlusher(c *swCore) {
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

func (m *StrandWeaver) flushOne(c *swCore) {
	if c.pb.Inflight() >= m.env.Cfg.PBMaxInflight {
		return
	}
	e := c.pb.NextWaiting(m.eligible(c))
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
			panic("strandweaver: controller NACKed a safe flush")
		}
		m.onAck(c, id)
	})
	if c.pb.Inflight() < m.env.Cfg.PBMaxInflight {
		//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
		m.env.Eng.After(flushIssuePace, func() { m.flushOne(c) })
	}
}

func (m *StrandWeaver) onAck(c *swCore, id uint64) {
	e, ok := c.pb.Ack(id)
	if !ok {
		panic("strandweaver: ACK for unknown persist buffer entry")
	}
	if _, ep := c.epochByTS(e.TS); ep != nil {
		ep.unacked--
	}
	m.tryCommitAll(c)
	if len(c.storeWaiters) > 0 {
		w := c.storeWaiters[0]
		c.storeWaiters = c.storeWaiters[1:]
		w()
	}
	m.kickFlusher(c)
}

// tryCommitAll retires every strand-head epoch that is closed, drained and
// dependency-free, then notifies dependents.
func (m *StrandWeaver) tryCommitAll(c *swCore) {
	progress := true
	for progress {
		progress = false
		for _, s := range c.strands {
			for len(s.epochs) > 0 {
				head := s.epochs[0]
				// Never retire the strand's open epoch.
				if !head.closed || head.unacked != 0 || !head.depsResolved() {
					break
				}
				s.epochs = s.epochs[1:]
				epoch := persist.EpochID{Thread: c.id, TS: head.ts}
				//asaplint:ignore alloccheck legacy model map bounded by workload footprint; outside the zero-alloc gate
				m.committed[epoch] = true
				m.hc.epochsCommitted.Inc()
				m.env.Ledger.EpochCommitted(epoch)
				if deps := m.waiters[epoch]; len(deps) > 0 {
					delete(m.waiters, epoch)
					for _, dst := range deps {
						dst := dst
						//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
						m.env.Eng.After(m.env.Cfg.MsgLat, func() { m.resolve(dst) })
					}
				}
				progress = true
			}
		}
	}
	// Garbage-collect fully drained strands (everything committed, only
	// the empty open epoch left) other than the active one, so long runs
	// do not accumulate strand state.
	live := c.strands[:0]
	for i, s := range c.strands {
		if i == c.cur || len(s.epochs) != 1 || s.epochs[0].closed || s.epochs[0].unacked != 0 {
			//asaplint:ignore alloccheck legacy model bookkeeping growth, bounded by workload footprint; outside the zero-alloc gate
			live = append(live, s)
		}
	}
	if len(live) != len(c.strands) {
		// Recompute the active index against the compacted slice.
		cur := c.strands[c.cur]
		c.strands = live
		for i, s := range c.strands {
			if s == cur {
				c.cur = i
				break
			}
		}
	}

	if c.dfenceWaiter != nil && m.drained(c) {
		w := c.dfenceWaiter
		c.dfenceWaiter = nil
		m.hc.dfenceStalled.Add(uint64(m.env.Eng.Now() - c.dfenceStart))
		//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
		w()
	}
	m.kickFlusher(c)
}

func (m *StrandWeaver) resolve(dst persist.EpochID) {
	c := m.cores[dst.Thread]
	if _, e := c.epochByTS(dst.TS); e != nil {
		e.resolved++
	}
	m.tryCommitAll(c)
}

var _ Model = (*StrandWeaver)(nil)
var _ StrandModel = (*StrandWeaver)(nil)
