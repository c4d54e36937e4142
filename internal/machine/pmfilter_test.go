package machine

import (
	"testing"

	"asap/internal/mem"
	"asap/internal/trace"
)

// pstoreTrace builds a one-thread trace with a persistent store to each
// line in pm and a volatile store to each line in vol.
func pstoreTrace(pm, vol []mem.Line) *trace.Trace {
	var b trace.Builder
	for _, l := range pm {
		b.StoreP(uint64(l) * mem.LineSize)
	}
	for _, l := range vol {
		b.StoreV(uint64(l) * mem.LineSize)
	}
	return &trace.Trace{Name: "pmfilter", Threads: [][]trace.Op{b.Ops()}}
}

// checkFilter compares has against the reference set on every probe line.
func checkFilter(t *testing.T, step string, f *pmFilter, ref map[mem.Line]bool, probes []mem.Line) {
	t.Helper()
	for _, l := range probes {
		if got := f.has(l); got != ref[l] {
			t.Errorf("%s: has(%d) = %v, want %v", step, l, got, ref[l])
		}
	}
}

// TestPMFilterMatchesMap drives the chunked filter and a map through the
// same marks and compares their answers on lines below the range, past
// it, at chunk boundaries, unmarked inside populated chunks, and inside a
// chunk no persistent store touches.
func TestPMFilterMatchesMap(t *testing.T) {
	const chunk = 1 << pmChunkShift
	base := mem.Line(1000)
	pm := []mem.Line{
		base,               // first line of chunk 0
		base + chunk - 1,   // last line of chunk 0
		base + chunk,       // first line of chunk 1
		base + 3*chunk + 5, // chunk 3 (the last); chunk 2 stays empty
		base + 64,          // second word of chunk 0
	}
	hi := base + 3*chunk + 5
	// Volatile stores far outside the range must not widen it.
	tr := pstoreTrace(pm, []mem.Line{0, hi + 10*chunk})
	f := newPMFilter(tr)
	if f.over != nil || f.base != base || f.span != uint64(hi-base)+1 {
		t.Fatalf("range = [%d, +%d) over=%v, want [%d, +%d) bitset", f.base, f.span, f.over != nil, base, hi-base+1)
	}
	if got, want := len(f.bits), 3*pmChunkWords; got != want {
		t.Fatalf("bit slab holds %d words, want %d (three populated chunks)", got, want)
	}
	probes := []mem.Line{
		0, 1, base - 1, base - chunk, // below base
		hi + 1, hi + 2, hi + chunk, base + 4*chunk, hi + 10*chunk, // past span
		base + 1, base + 63, base + 65, base + chunk + 1, hi - 1, // unmarked, populated chunks
		base + 2*chunk, base + 2*chunk + 7, base + 3*chunk - 1, // chunk without stores
	}
	probes = append(probes, pm...)
	ref := make(map[mem.Line]bool)
	checkFilter(t, "before any mark", &f, ref, probes)
	for _, l := range pm {
		f.mark(l)
		ref[l] = true
		checkFilter(t, "after mark", &f, ref, probes)
	}
	// Marking a line the pre-scan never saw is ignored rather than
	// corrupting a neighbour.
	f.mark(base + 2*chunk + 7)
	f.mark(hi + 1)
	checkFilter(t, "after stray marks", &f, ref, probes)
}

// TestPMFilterOverSpan: a persistent span wider than pmFilterMaxSpan falls
// back to the map and still answers exactly.
func TestPMFilterOverSpan(t *testing.T) {
	far := mem.Line(pmFilterMaxSpan + 10)
	pm := []mem.Line{3, far}
	f := newPMFilter(pstoreTrace(pm, nil))
	if f.over == nil || f.bits != nil {
		t.Fatal("span past pmFilterMaxSpan did not fall back to the map")
	}
	probes := []mem.Line{0, 2, 3, 4, far - 1, far, far + 1}
	ref := make(map[mem.Line]bool)
	checkFilter(t, "before any mark", &f, ref, probes)
	for _, l := range pm {
		f.mark(l)
		ref[l] = true
		checkFilter(t, "after mark", &f, ref, probes)
	}
}

// TestPMFilterEmpty: a trace without persistent stores yields a filter
// that holds no line.
func TestPMFilterEmpty(t *testing.T) {
	f := newPMFilter(pstoreTrace(nil, []mem.Line{5}))
	for _, l := range []mem.Line{0, 5, 1 << 40} {
		if f.has(l) {
			t.Errorf("empty filter has(%d)", l)
		}
	}
}

// TestPMFilterAllocFree: mark and has sit on the per-store and eviction
// paths and must not allocate.
func TestPMFilterAllocFree(t *testing.T) {
	base := mem.Line(1 << 20)
	f := newPMFilter(pstoreTrace([]mem.Line{base, base + 5<<pmChunkShift}, nil))
	if n := testing.AllocsPerRun(100, func() { f.mark(base + 5<<pmChunkShift) }); n != 0 {
		t.Errorf("mark allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = f.has(base)
		_ = f.has(base + 1<<pmChunkShift)
		_ = f.has(base - 1)
	}); n != 0 {
		t.Errorf("has allocates %.1f times per call", n)
	}
}
