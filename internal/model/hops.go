package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
)

// HOPS implements the comparison design from Nalli et al. [6] as configured
// in the ASAP paper (§VII): per-core persist buffers with *conservative*
// flushing — only the oldest uncommitted epoch may flush, and an epoch with
// an unresolved cross-thread dependency blocks the buffer entirely. Cross
// dependencies resolve by polling a global timestamp register (epochCore's
// committedTS) every HOPSPollInterval cycles at HOPSPollCost per access
// (the paper's updated, realistic polling parameters). All flushes are
// safe; the controllers need no recovery table.
type HOPS struct {
	epochCore
	rp bool
	// polling[c] marks core c's next global-TS poll as scheduled.
	polling []bool
}

// HOPS's own typed events: a poll waits HOPSPollInterval, then the
// register access costs HOPSPollCost before the result is visible.
const (
	hopsEvPollWait = epochEvNext + iota // poll interval elapsed for core arg
	hopsEvPoll                          // register read completes for core arg
)

func newHOPS(env Env, rp bool) *HOPS {
	m := &HOPS{rp: rp, polling: make([]bool, env.Cfg.Cores)}
	m.init(env, m)
	return m
}

// Name returns hops_ep or hops_rp.
func (m *HOPS) Name() string {
	if m.rp {
		return NameHOPSRP
	}
	return NameHOPSEP
}

// RunEvent dispatches the poll events and defers the rest to the core.
func (m *HOPS) RunEvent(kind int, arg uint64) {
	switch kind {
	case hopsEvPollWait:
		m.env.Eng.AfterOp(m.env.Cfg.HOPSPollCost, m, hopsEvPoll, arg)
	case hopsEvPoll:
		m.polling[arg] = false
		m.hc.hopsPolls.Inc()
		m.pollOnce(m.cores[arg])
	default:
		m.epochCore.RunEvent(kind, arg)
	}
}

// Release closes the epoch under release persistency; the machine tags the
// lock line with the closed epoch.
func (m *HOPS) Release(core int, line mem.Line) {
	if m.rp {
		m.closeIfRoom(m.cores[core])
	}
	m.env.Resume.Resume(core)
}

// Conflict applies the same dependency policy as ASAP, but the dependency
// resolves by polling rather than CDR messages.
func (m *HOPS) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.source(cf, m.rp)
	if !ok {
		return
	}
	m.hc.interTEpochConflict.Inc()
	if m.depend(core, src, false, false) {
		m.schedulePoll(m.cores[core])
	}
}

// blocked arms the poll whenever the oldest epoch waits on a dependency —
// also when reached from the sampler's PBBlocked.
func (m *HOPS) blocked(c *epochCPU) { m.schedulePoll(c) }

// notified is never called: HOPS lists no dependents.
func (m *HOPS) notified(persist.EpochID) { panic("hops: commit notify without dependents") }

// schedulePoll arranges the next global-TS poll for core c.
func (m *HOPS) schedulePoll(c *epochCPU) {
	if m.polling[c.id] {
		return
	}
	m.polling[c.id] = true
	m.env.Eng.AfterOp(m.env.Cfg.HOPSPollInterval, m, hopsEvPollWait, uint64(c.id))
}

// pollOnce checks every unresolved dependency against the global TS
// register, commits what it unblocked, and re-arms the poll if any
// dependency remains.
func (m *HOPS) pollOnce(c *epochCPU) {
	progress := false
	remaining := false
	for ts := c.et.OldestTS(); ts <= c.et.CurrentTS(); ts++ {
		ent, ok := c.et.Get(ts)
		if !ok {
			continue
		}
		for ent.Resolved < len(ent.Deps) {
			src := ent.Deps[ent.Resolved]
			if m.committedTS[src.Thread] < src.TS {
				remaining = true
				break
			}
			ent.Resolved++
			progress = true
		}
	}
	if progress {
		for ts := c.et.OldestTS(); ts <= c.et.CurrentTS(); ts++ {
			if ent, ok := c.et.Get(ts); ok {
				m.tryCommit(c, ent.TS)
			}
		}
		m.kick(c)
	}
	if remaining {
		m.schedulePoll(c)
	}
}

var _ Model = (*HOPS)(nil)
