package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// Baseline replicates current Intel machines (§VII): persistent stores are
// tracked as dirty lines; ordering and durability points (ofence, dfence,
// and the flush-before-unlock convention of lock-based PM code) issue clwb
// for every dirty line of the epoch and then stall the core on an sfence
// until the controllers acknowledge every flush. There are no persist
// buffers, so ordering stalls hit the core directly — the behaviour the
// paper's Figure 8 normalizes everything against.
type Baseline struct {
	env   Env
	hc    hotCounters
	cores []*baseCore
}

type baseCore struct {
	id int
	// writeset holds the dirty persistent lines of the current epoch, in
	// insertion order for deterministic issue.
	order    []mem.Line
	writeset map[mem.Line]mem.Token

	ts          uint64 // current epoch timestamp
	committedTS uint64 // epochs <= this have had their fence complete

	outstanding int
	issueQ      []mem.Line
	fenceDone   func()
	fenceStart  sim.Cycles
}

func newBaseline(env Env) *Baseline {
	m := &Baseline{env: env, hc: newHotCounters(env.St)}
	m.cores = make([]*baseCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &baseCore{id: i, ts: 1, writeset: make(map[mem.Line]mem.Token)}
	}
	return m
}

// Name returns "baseline".
func (m *Baseline) Name() string { return NameBaseline }

// Stats returns the shared stat set.
func (m *Baseline) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the core's epoch (fence-delimited).
func (m *Baseline) CurrentTS(core int) uint64 { return m.cores[core].ts }

// EpochCommitted: an epoch is durable once its closing fence completed.
func (m *Baseline) EpochCommitted(e persist.EpochID) bool {
	return m.cores[e.Thread].committedTS >= e.TS
}

// Store marks the line dirty; durability is deferred to the next fence.
func (m *Baseline) Store(core int, line mem.Line, token mem.Token, done func()) {
	c := m.cores[core]
	if _, ok := c.writeset[line]; !ok {
		c.order = append(c.order, line) //asaplint:ignore alloccheck dirty-line list reaches the inter-fence footprint once, then reuses it
	}
	c.writeset[line] = token //asaplint:ignore alloccheck write set bounded by dirty footprint; entries deleted at flush recycle
	m.env.Ledger.RecordWrite(persist.EpochID{Thread: core, TS: c.ts}, line, token)
	done() //asaplint:ignore alloccheck done is the core's resume callback, built once at machine construction
}

// Ofence is clwb-per-dirty-line followed by sfence: the core stalls until
// every flush is acknowledged.
func (m *Baseline) Ofence(core int, done func()) { m.fence(core, done) }

// Dfence behaves identically: on this hardware the sfence already waits for
// ADR durability.
func (m *Baseline) Dfence(core int, done func()) { m.fence(core, done) }

// Release flushes and fences before the lock is actually released — the
// standard recipe for crash-consistent lock-based PM code on Intel hardware.
func (m *Baseline) Release(core int, line mem.Line, done func()) {
	m.fence(core, done)
}

// Acquire has no persistence cost on the baseline.
func (m *Baseline) Acquire(core int, line mem.Line) {}

// Conflict: the synchronous model needs no dependency tracking; ordering is
// already enforced at every fence.
func (m *Baseline) Conflict(core int, cf *cache.Conflict) {}

// StartDrain issues a final fence.
func (m *Baseline) StartDrain(core int, done func()) { m.fence(core, done) }

// PBOccupancy and PBBlocked: no persist buffer.
func (m *Baseline) PBOccupancy(core int) int { return 0 }
func (m *Baseline) PBBlocked(core int) bool  { return false }

func (m *Baseline) fence(core int, done func()) {
	c := m.cores[core]
	if c.fenceDone != nil {
		panic("baseline: overlapping fences on one core")
	}
	if len(c.order) == 0 && c.outstanding == 0 {
		m.commitEpoch(c)
		done() //asaplint:ignore alloccheck done is the core's resume callback, built once at machine construction
		return
	}
	m.hc.fences.Inc()
	c.fenceStart = m.env.Eng.Now()
	c.fenceDone = done
	c.issueQ = append(c.issueQ, c.order...) //asaplint:ignore alloccheck issue queue reaches steady-state capacity, then appends reuse it
	c.order = c.order[:0]
	m.issueFlushes(c)
}

// issueFlushes streams clwb operations, at most PBMaxInflight outstanding
// (the write-combining/MSHR limit of the flush path).
func (m *Baseline) issueFlushes(c *baseCore) {
	for len(c.issueQ) > 0 && c.outstanding < m.env.Cfg.PBMaxInflight {
		line := c.issueQ[0]
		c.issueQ = c.issueQ[1:]
		tok := c.writeset[line]
		delete(c.writeset, line)
		c.outstanding++
		m.hc.clwbIssued.Inc()
		pkt := persist.FlushPacket{
			Line:  line,
			Token: tok,
			Epoch: persist.EpochID{Thread: c.id, TS: c.ts},
		}
		//asaplint:ignore alloccheck closure-form flush reply; typed-event conversion of this model is tracked roadmap debt
		m.env.MCs[m.env.IL.Home(line)].SendFlush(pkt, func(res persist.FlushResult) {
			if res != persist.FlushAck {
				panic("baseline: controller NACKed a flush")
			}
			c.outstanding--
			m.onAck(c)
		})
	}
}

func (m *Baseline) onAck(c *baseCore) {
	if len(c.issueQ) > 0 {
		m.issueFlushes(c)
		return
	}
	if c.outstanding == 0 && c.fenceDone != nil {
		done := c.fenceDone
		c.fenceDone = nil
		m.hc.dfenceStalled.Add(uint64(m.env.Eng.Now() - c.fenceStart))
		m.commitEpoch(c)
		done()
	}
}

func (m *Baseline) commitEpoch(c *baseCore) {
	c.committedTS = c.ts
	m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: c.ts})
	c.ts++
}

var _ Model = (*Baseline)(nil)

// PBHasLine: the baseline has no persist buffer; pending lines live in the
// epoch write set and are flushed synchronously at fences.
func (m *Baseline) PBHasLine(core int, line mem.Line) bool { return false }
