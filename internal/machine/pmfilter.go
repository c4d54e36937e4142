package machine

import (
	"asap/internal/mem"
	"asap/internal/trace"
)

// pmFilterMaxSpan caps the chunked-bitset representation of pmFilter at
// 2^27 lines (8 GiB of PM). Real workloads allocate from a contiguous PM
// heap well under this; a pathological trace spanning more falls back to
// a map so correctness never depends on layout.
const pmFilterMaxSpan = 1 << 27

// pmChunkShift sets the chunk size: the span is cut into chunks of
// 1<<pmChunkShift lines (4096 lines, a 512-byte bit block), and only
// chunks holding a persistent store get bits.
const (
	pmChunkShift = 12
	pmChunkWords = 1 << pmChunkShift / 64
)

// pmFilter answers "is this line persistent memory?" on the LLC-eviction
// path: two compares, a chunk lookup and a bit test. A pre-scan of the
// trace at construction fixes the persistent range [base, base+span) and
// which of its chunks hold a persistent store; the bits of those chunks
// share one slab, so the filter is sized by the trace's persistent
// footprint rather than by the distance between its lowest and highest
// persistent lines. Membership is still marked at run time as each
// persistent store issues, so stats that depend on when a line became
// persistent are unchanged.
type pmFilter struct {
	base mem.Line
	span uint64
	// chunk maps a chunk of the span to 1 + its block index in bits, or 0
	// for a chunk without persistent stores.
	chunk []uint32
	bits  []uint64 // pmChunkWords words per populated chunk
	// over is the fallback when the trace's persistent span exceeds
	// pmFilterMaxSpan lines; nil whenever bits is in use.
	over map[mem.Line]bool
}

// newPMFilter sizes the filter from the trace's persistent-store footprint.
func newPMFilter(tr *trace.Trace) pmFilter {
	var lo, hi mem.Line
	seen := false
	eachPStore(tr, func(l mem.Line) {
		if !seen {
			lo, hi, seen = l, l, true
		} else if l < lo {
			lo = l
		} else if l > hi {
			hi = l
		}
	})
	if !seen {
		return pmFilter{}
	}
	span := uint64(hi-lo) + 1
	if span > pmFilterMaxSpan {
		return pmFilter{over: make(map[mem.Line]bool)}
	}
	f := pmFilter{
		base:  lo,
		span:  span,
		chunk: make([]uint32, (span+1<<pmChunkShift-1)>>pmChunkShift),
	}
	n := uint32(0)
	eachPStore(tr, func(l mem.Line) {
		if c := &f.chunk[uint64(l-lo)>>pmChunkShift]; *c == 0 {
			n++
			*c = n
		}
	})
	f.bits = make([]uint64, int(n)*pmChunkWords)
	return f
}

// eachPStore calls fn with the line of every persistent store in tr.
func eachPStore(tr *trace.Trace, fn func(mem.Line)) {
	for _, ops := range tr.Threads {
		for i := range ops {
			if op := &ops[i]; op.Kind == trace.OpStore && op.Persistent {
				fn(mem.LineOf(op.Addr))
			}
		}
	}
}

// word returns the bitset word holding line l, or nil when l lies outside
// the span or in a chunk without persistent stores.
func (f *pmFilter) word(l mem.Line) *uint64 {
	if l < f.base {
		return nil
	}
	off := uint64(l - f.base)
	if off >= f.span {
		return nil
	}
	c := f.chunk[off>>pmChunkShift]
	if c == 0 {
		return nil
	}
	return &f.bits[uint64(c-1)*pmChunkWords+(off&(1<<pmChunkShift-1))>>6]
}

// mark records line l as persistent. Marks come from the same trace ops
// the pre-scan saw, so l always has a word; a line the scan did not see
// is ignored.
func (f *pmFilter) mark(l mem.Line) {
	if f.over != nil {
		f.over[l] = true //asaplint:ignore alloccheck overflow map bounded by the workload's PM-line footprint
		return
	}
	if w := f.word(l); w != nil {
		*w |= 1 << (uint64(l-f.base) & 63)
	}
}

// has reports whether line l has carried a persistent store.
func (f *pmFilter) has(l mem.Line) bool {
	if f.over != nil {
		return f.over[l]
	}
	w := f.word(l)
	return w != nil && *w&(1<<(uint64(l-f.base)&63)) != 0
}
