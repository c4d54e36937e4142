package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var a, b Builder
	a.StoreP(0x1000)
	a.Ofence()
	a.Compute(500)
	a.Load(0x2000)
	a.Dfence()
	b.Acquire(0x40)
	b.StoreV(0x3000)
	b.Release(0x40)
	tr := &Trace{Name: "rt-test", Threads: [][]Op{a.Ops(), b.Ops()}}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumThreads() != 2 {
		t.Fatalf("header mismatch: %q %d", got.Name, got.NumThreads())
	}
	for ti := range tr.Threads {
		if len(got.Threads[ti]) != len(tr.Threads[ti]) {
			t.Fatalf("thread %d length mismatch", ti)
		}
		for oi := range tr.Threads[ti] {
			if got.Threads[ti][oi] != tr.Threads[ti][oi] {
				t.Fatalf("op %d/%d: %+v != %+v", ti, oi, got.Threads[ti][oi], tr.Threads[ti][oi])
			}
		}
	}
}

// TestRoundTripProperty: arbitrary op streams survive the round trip.
func TestRoundTripProperty(t *testing.T) {
	type rawOp struct {
		Kind       uint8
		Arg        uint32
		Persistent bool
	}
	prop := func(name string, raw []rawOp) bool {
		tr := &Trace{Name: name}
		var b Builder
		for _, r := range raw {
			op := Op{Kind: Kind(r.Kind % 7), Persistent: r.Persistent}
			if op.Kind == OpCompute {
				op.N = r.Arg
			} else {
				op.Addr = uint64(r.Arg)
			}
			b.ops = append(b.ops, op)
		}
		tr.Threads = append(tr.Threads, b.Ops())

		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Name != tr.Name || len(got.Threads[0]) != len(tr.Threads[0]) {
			return false
		}
		for i := range tr.Threads[0] {
			if got.Threads[0][i] != tr.Threads[0][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"WRONGMAG",
		"ASAPTRC1", // truncated after magic
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) accepted garbage", c)
		}
	}
	// Unknown op kind.
	var buf bytes.Buffer
	tr := &Trace{Name: "x", Threads: [][]Op{{{Kind: OpLoad, Addr: 1}}}}
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-2] = 0x7f // corrupt the kind byte
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted kind accepted")
	}
}

// TestReadBoundsHeaderAllocation: a header claiming 2^28 ops followed by
// no ops must fail without reserving memory for the claimed count.
func TestReadBoundsHeaderAllocation(t *testing.T) {
	in := []byte(traceMagic)
	in = binary.AppendUvarint(in, 0)     // empty name
	in = binary.AppendUvarint(in, 1)     // one thread
	in = binary.AppendUvarint(in, 1<<28) // claimed op count, no ops follow
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated trace accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Read of a %d-byte input allocated %d bytes", len(in), got)
	}
}

// FuzzRead feeds arbitrary bytes to the trace decoder: Read must return an
// error instead of panicking, and a trace it accepts must survive a
// Write/Read round trip unchanged.
func FuzzRead(f *testing.F) {
	var a, b Builder
	a.StoreP(0x1000)
	a.Ofence()
	a.Compute(500)
	a.Load(0x2000)
	a.Dfence()
	b.Acquire(0x40)
	b.StoreV(0x3000)
	b.Release(0x40)
	b.NewStrand()
	var buf bytes.Buffer
	if err := (&Trace{Name: "fuzz", Threads: [][]Op{a.Ops(), b.Ops()}}).Write(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	for _, n := range []int{0, len(traceMagic), len(traceMagic) + 2, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:n])
	}
	for _, at := range []int{0, len(traceMagic), len(traceMagic) + 1, len(traceMagic) + 6, len(seed) / 2, len(seed) - 1} {
		flipped := append([]byte(nil), seed...)
		flipped[at] ^= 0x80
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("write: %v", err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("re-read of a written trace: %v", err)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the trace: %+v != %+v", tr, back)
		}
	})
}
