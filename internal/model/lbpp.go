package model

import (
	"asap/internal/cache"
	"asap/internal/mem"
	"asap/internal/persist"
)

// LBPP implements LB++ (Joshi et al., MICRO'15, "Efficient persist
// barriers") as the paper characterizes it in §VII-E and Table IV: epoch
// persistency tracked in the cache hierarchy, with the strictest flushing
// discipline of the compared designs — an epoch's writes begin flushing
// only after the epoch is *complete* (closed by a barrier) and all earlier
// epochs have fully persisted (epochCore's lazy mode). The open epoch's
// writes sit in the cache, modelled as the persist buffer. Cross-thread
// dependencies use the same epoch-splitting deadlock avoidance (LB++ is
// where ASAP borrows it from [14]); resolution is by waiting for the
// source epoch to persist, observed through coherence as a commit notify.
// The paper expects LB++ below HOPS and ASAP.
type LBPP struct {
	epochCore
}

func newLBPP(env Env) *LBPP {
	m := &LBPP{}
	m.init(env, m)
	m.lazy = true
	return m
}

// Name returns "lbpp".
func (m *LBPP) Name() string { return NameLBPP }

// Release closes the epoch like an ofence (epoch persistency: the release
// is ordered by the barrier the workload already issued around it).
func (m *LBPP) Release(core int, line mem.Line) { m.Ofence(core) }

// Conflict applies the epoch-persistency dependency policy with the
// epoch-splitting rule LB++ introduced; the closed source epoch becomes
// flushable, so the split kicks its flusher.
func (m *LBPP) Conflict(core int, cf *cache.Conflict) {
	src, ok := m.source(cf, false)
	if !ok {
		return
	}
	m.hc.interTEpochConflict.Inc()
	m.depend(core, src, true, true)
}

// blocked needs no action: the source's commit notify unblocks.
func (m *LBPP) blocked(*epochCPU) {}

// notified resolves the dependency once the source persisted.
func (m *LBPP) notified(dst persist.EpochID) { m.resolve(dst) }

var _ Model = (*LBPP)(nil)
