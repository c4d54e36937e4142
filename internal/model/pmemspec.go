package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
	"asap/internal/stats"
)

// PMEMSpec implements PMEM-Spec (Jeong & Jung, ASPLOS'21) as the paper
// characterizes it in §VII-E and Table IV: every PM access flushes
// speculatively with no buffering and no ordering enforcement — the core
// never stalls for ordering — speculating that persists reach memory in
// program order. A mis-speculation (a younger epoch's write persisting
// while an older epoch still has writes in flight to a *different*
// controller, so the persist order could be observed inverted across
// controllers) is treated like a failure and repaired by software, which
// is expensive. On a single-controller system the channel is FIFO, nothing
// mis-speculates, and PMEM-Spec performs close to ASAP; with two
// controllers out-of-order persists are common and recovery dominates —
// exactly the paper's argument for why speculation needs ASAP's
// MC-side undo machinery instead.
type PMEMSpec struct {
	env   Env
	hc    hotCounters
	cores []*specCore
}

// specRecoveryCost is the software mis-speculation repair time. The paper
// calls it "very high overhead"; 5 µs (10k cycles) is a conservative
// estimate for a software handler that quiesces and repairs log state.
const specRecoveryCost sim.Cycles = 10_000

type specCore struct {
	id int
	ts uint64 // epoch counter (fence-delimited)

	// outstanding[mc] counts un-ACKed flushes per controller for the
	// *current* epoch window; epochOutstanding tracks older epochs.
	outstanding map[uint64]*specEpoch // by epoch TS

	committedTS  uint64
	recoverUntil sim.Cycles

	dfenceWaiter func()
	dfenceStart  sim.Cycles
}

type specEpoch struct {
	perMC   []int
	pending int
}

func newPMEMSpec(env Env) *PMEMSpec {
	m := &PMEMSpec{env: env, hc: newHotCounters(env.St)}
	m.cores = make([]*specCore, env.Cfg.Cores)
	for i := range m.cores {
		m.cores[i] = &specCore{id: i, ts: 1, outstanding: make(map[uint64]*specEpoch)}
	}
	return m
}

// Name returns "pmem_spec".
func (m *PMEMSpec) Name() string { return NamePMEMSpec }

// Stats returns the shared stat set.
func (m *PMEMSpec) Stats() *stats.Set { return m.env.St }

// CurrentTS returns the core's fence-delimited epoch.
func (m *PMEMSpec) CurrentTS(core int) uint64 { return m.cores[core].ts }

// EpochCommitted reports whether every flush of the epoch (and its
// predecessors) has been acknowledged. Note that unlike ASAP this is a
// best-effort property: mis-speculated persist orderings are repaired by
// software, not prevented, so the crash checker is not applicable to this
// model (see DESIGN.md).
func (m *PMEMSpec) EpochCommitted(e persist.EpochID) bool {
	return m.cores[e.Thread].committedTS >= e.TS
}

// delay defers done until any pending software recovery completes.
func (m *PMEMSpec) delay(c *specCore, done func()) {
	if now := m.env.Eng.Now(); now < c.recoverUntil {
		m.env.Eng.At(c.recoverUntil, done)
		return
	}
	//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
	done()
}

// Store flushes immediately — fire and forget. The core pays no ordering
// stall; mis-speculation is detected when an older epoch still has traffic
// in flight to a different controller.
func (m *PMEMSpec) Store(core int, line mem.Line, token mem.Token, done func()) {
	c := m.cores[core]
	ts := c.ts
	m.env.Ledger.RecordWrite(persist.EpochID{Thread: core, TS: ts}, line, token)
	m.hc.entriesInserted.Inc()

	mcID := m.env.IL.Home(line)
	ep := c.outstanding[ts]
	if ep == nil {
		//asaplint:ignore alloccheck legacy model per-record allocation; typed-event/pooling conversion is tracked roadmap debt
		ep = &specEpoch{perMC: make([]int, m.env.Cfg.MCs)}
		//asaplint:ignore alloccheck legacy model map bounded by workload footprint; outside the zero-alloc gate
		c.outstanding[ts] = ep
	}
	ep.perMC[mcID]++
	ep.pending++

	// Mis-speculation check: an older epoch has un-ACKed flushes to a
	// different controller, so this younger write may persist first.
	//asaplint:ignore detcheck a count increment plus max over all entries is order-independent
	for old, oep := range c.outstanding {
		if old >= ts {
			continue
		}
		for mc, n := range oep.perMC {
			if mc != mcID && n > 0 {
				m.hc.specMisspeculations.Inc()
				if m.env.Eng.Now()+specRecoveryCost > c.recoverUntil {
					c.recoverUntil = m.env.Eng.Now() + specRecoveryCost
				}
			}
		}
	}

	pkt := persist.FlushPacket{Line: line, Token: token, Epoch: persist.EpochID{Thread: core, TS: ts}}
	//asaplint:ignore alloccheck closure-form flush reply; typed-event conversion of this legacy model is tracked roadmap debt
	m.env.MCs[mcID].SendFlush(pkt, func(persist.FlushResult) {
		ep.perMC[mcID]--
		ep.pending--
		m.retire(c)
	})
	m.delay(c, done)
}

// retire advances committedTS over fully-acknowledged epochs.
func (m *PMEMSpec) retire(c *specCore) {
	for {
		next := c.committedTS + 1
		if next >= c.ts {
			break
		}
		ep := c.outstanding[next]
		if ep != nil && ep.pending > 0 {
			break
		}
		delete(c.outstanding, next)
		c.committedTS = next
		m.env.Ledger.EpochCommitted(persist.EpochID{Thread: c.id, TS: next})
	}
	if c.dfenceWaiter != nil && m.drained(c) {
		w := c.dfenceWaiter
		c.dfenceWaiter = nil
		m.hc.dfenceStalled.Add(uint64(m.env.Eng.Now() - c.dfenceStart))
		//asaplint:ignore alloccheck resume/done callback invocation; the callback's creation site carries the alloc proof
		w()
	}
}

func (m *PMEMSpec) drained(c *specCore) bool {
	//asaplint:ignore detcheck an any-pending scan over all entries is order-independent
	for _, ep := range c.outstanding {
		if ep.pending > 0 {
			return false
		}
	}
	return true
}

// Ofence only advances the epoch counter — no stall, that is the point.
func (m *PMEMSpec) Ofence(core int, done func()) {
	c := m.cores[core]
	c.ts++
	m.retireClosed(c)
	m.delay(c, done)
}

// retireClosed lets retire consider the epoch just closed by a fence.
func (m *PMEMSpec) retireClosed(c *specCore) { m.retire(c) }

// Dfence waits until every issued flush is acknowledged (durability).
func (m *PMEMSpec) Dfence(core int, done func()) {
	c := m.cores[core]
	c.ts++
	m.retire(c)
	if m.drained(c) {
		m.delay(c, done)
		return
	}
	if c.dfenceWaiter != nil {
		panic("pmem_spec: overlapping dfence waits on one core")
	}
	c.dfenceStart = m.env.Eng.Now()
	//asaplint:ignore alloccheck closure-form event scheduling; typed-event conversion of this legacy model is tracked roadmap debt
	c.dfenceWaiter = func() { m.delay(c, done) }
}

// Release behaves like an ofence (flushes are already in flight).
func (m *PMEMSpec) Release(core int, line mem.Line, done func()) {
	m.Ofence(core, done)
}

// Acquire and Conflict: PMEM-Spec tracks no dependencies in hardware.
func (m *PMEMSpec) Acquire(core int, line mem.Line)       {}
func (m *PMEMSpec) Conflict(core int, cf *cache.Conflict) {}

// StartDrain gives end-of-trace dfence semantics.
func (m *PMEMSpec) StartDrain(core int, done func()) { m.Dfence(core, done) }

// PBOccupancy and PBBlocked: no persist buffer.
func (m *PMEMSpec) PBOccupancy(core int) int { return 0 }
func (m *PMEMSpec) PBBlocked(core int) bool  { return false }

// PBHasLine: no persist buffer.
func (m *PMEMSpec) PBHasLine(core int, line mem.Line) bool { return false }

var _ Model = (*PMEMSpec)(nil)
