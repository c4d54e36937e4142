package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
	"asap/internal/sim"
)

// LRP implements Lazy Release Persistency (Dananjaya et al., ASPLOS'20) as
// the paper characterizes it in §VII-E and Table IV: release persistency
// enforced in the cache hierarchy — buffered conservative flushing like
// HOPS, but cross-thread dependencies are resolved by *stalling the
// coherence transfer*: a forward request for a released cache line blocks
// until the releaser's earlier writes persist. The acquiring core therefore
// stalls at the acquire itself instead of at its persist buffer, and LRP
// records no epoch dependencies at all. "ASAP instead records the
// dependency information and persists writes speculatively without
// stalling. Hence, ASAP would perform better than LRP."
type LRP struct {
	epochCore
	stalls []lrpStall
}

// lrpStall is one core's blocked coherence forward: while on, the core's
// next operation parks in op until the source epoch persists. The core has
// one operation in flight, so the pending-op queue holds at most one.
type lrpStall struct {
	on    bool
	began sim.Cycles
	op    lrpOp
}

// lrpOp is a Model call deferred behind a blocked acquire; kind 0 is no
// operation.
type lrpOp struct {
	kind  int
	line  mem.Line
	token mem.Token
}

const (
	lrpStore = iota + 1
	lrpOfence
	lrpDfence
	lrpRelease
)

func newLRP(env Env) *LRP {
	m := &LRP{stalls: make([]lrpStall, env.Cfg.Cores)}
	m.init(env, m)
	return m
}

// Name returns "lrp".
func (m *LRP) Name() string { return NameLRP }

// Store, Ofence, Dfence, Release and StartDrain run behind any blocked
// acquire of the core.
func (m *LRP) Store(core int, line mem.Line, token mem.Token) {
	m.gate(core, lrpOp{kind: lrpStore, line: line, token: token})
}

func (m *LRP) Ofence(core int) { m.gate(core, lrpOp{kind: lrpOfence}) }

func (m *LRP) Dfence(core int) { m.gate(core, lrpOp{kind: lrpDfence}) }

func (m *LRP) StartDrain(core int) { m.Dfence(core) }

// Release closes the epoch (one-sided barrier of release persistency).
func (m *LRP) Release(core int, line mem.Line) { m.gate(core, lrpOp{kind: lrpRelease}) }

// gate defers op while the core's acquire is blocked on a remote persist.
func (m *LRP) gate(core int, op lrpOp) {
	s := &m.stalls[core]
	if !s.on {
		m.exec(core, op)
		return
	}
	if s.op.kind != 0 {
		panic("lrp: overlapping operations behind one blocked acquire")
	}
	s.op = op
}

func (m *LRP) exec(core int, op lrpOp) {
	c := m.cores[core]
	switch op.kind {
	case lrpStore:
		m.epochCore.Store(core, op.line, op.token)
	case lrpOfence:
		m.epochCore.Ofence(core)
	case lrpDfence:
		m.epochCore.Dfence(core)
	case lrpRelease:
		m.closeIfRoom(c)
		m.env.Resume.Resume(core)
	default:
		panic("lrp: unknown deferred operation")
	}
}

// Conflict: an acquire of a released line whose release epoch has not
// persisted blocks the requesting core — LRP's stalled coherence forward.
// The source epoch notifies the core when it commits, and is split so it
// can persist.
func (m *LRP) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.source(cf, true)
	if !ok {
		return
	}
	m.hc.interTEpochConflict.Inc()
	m.hc.lrpForwardStalls.Inc()
	if s := &m.stalls[core]; !s.on {
		s.on = true
		s.began = m.env.Eng.Now()
		m.addDependent(src, persist.EpochID{Thread: core})
	}
	m.splitSource(src, true)
}

// blocked is never reached: LRP epochs carry no dependencies.
func (m *LRP) blocked(*epochCPU) {}

// notified lifts the core's blocked forward and runs its parked operation.
func (m *LRP) notified(dst persist.EpochID) {
	s := &m.stalls[dst.Thread]
	if !s.on {
		return
	}
	m.hc.lrpStallCycles.Add(uint64(m.env.Eng.Now() - s.began))
	s.on = false
	op := s.op
	s.op = lrpOp{}
	if op.kind != 0 {
		m.exec(dst.Thread, op)
	}
}

var _ Model = (*LRP)(nil)
