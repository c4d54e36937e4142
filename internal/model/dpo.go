package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
)

// DPO implements Delegated Persist Ordering (Kolli et al., MICRO'16) as the
// paper characterizes it in §VII-E and Table IV: persist buffers alongside
// the private caches with *conservative* flushing — like HOPS — but
// cross-thread dependencies resolve through interconnect snooping
// (broadcast) rather than polling a global register, so resolution is fast
// but every commit with dependents costs a broadcast (epochCore's
// broadcast mode). DPO does not support multiple memory controllers; on
// this 2-MC machine it falls back to the same wait-for-all-ACKs cross-MC
// ordering as HOPS, which is exactly the configuration the paper predicts
// performs "comparable to HOPS and lesser than ASAP".
type DPO struct {
	epochCore
}

func newDPO(env Env) *DPO {
	m := &DPO{}
	m.init(env, m)
	m.broadcast = true
	return m
}

// Name returns "dpo".
func (m *DPO) Name() string { return NameDPO }

// Release closes the epoch (release persistency).
func (m *DPO) Release(core int, line mem.Line) {
	m.closeIfRoom(m.cores[core])
	m.env.Resume.Resume(core)
}

// Conflict records a dependency under release persistency (DPO is evaluated
// with the RP policy here, its favourable configuration).
func (m *DPO) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.source(cf, true)
	if !ok {
		return
	}
	m.hc.interTEpochConflict.Inc()
	m.depend(core, src, false, true)
}

// blocked needs no action: the snooped commit broadcast unblocks.
func (m *DPO) blocked(*epochCPU) {}

// notified resolves the dependency one interconnect hop after the source
// committed.
func (m *DPO) notified(dst persist.EpochID) { m.resolve(dst) }

var _ Model = (*DPO)(nil)
