package machine

import (
	"testing"

	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/trace"
)

// smallTrace builds a synthetic multi-threaded trace with persistent writes,
// fences, shared lines and locks — enough to exercise every model path.
func smallTrace(threads, opsPerThread int, seed uint64) *trace.Trace {
	r := rng.New(seed)
	tr := &trace.Trace{Name: "smoke"}
	const (
		pmBase   = 1 << 30
		lockAddr = 1 << 20
	)
	for t := 0; t < threads; t++ {
		var b trace.Builder
		for i := 0; i < opsPerThread; i++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				// Private persistent store.
				b.StoreP(uint64(pmBase + t*8192 + r.Intn(32)*64))
			case 4:
				// Shared persistent store under a lock.
				b.Acquire(lockAddr)
				b.StoreP(uint64(pmBase + 1<<20 + r.Intn(8)*64))
				b.Ofence()
				b.StoreP(uint64(pmBase + 1<<20 + 9*64))
				b.Release(lockAddr)
			case 5:
				b.Ofence()
			case 6:
				b.Dfence()
			case 7:
				b.Load(uint64(pmBase + r.Intn(64)*64))
			default:
				b.Compute(uint32(10 + r.Intn(50)))
			}
		}
		b.Dfence()
		tr.Threads = append(tr.Threads, b.Ops())
	}
	return tr
}

// TestAllModelsComplete checks forward progress (Theorem 1): every model
// runs the same contended multi-threaded trace to completion.
func TestAllModelsComplete(t *testing.T) {
	tr := smallTrace(4, 400, 1)
	for _, name := range model.AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := New(config.Default(), name, tr)
			if err != nil {
				t.Fatal(err)
			}
			res := m.Run(200_000_000)
			if !m.allDone() {
				t.Fatalf("%s deadlocked: finished %d/%d cores at cycle %d",
					name, m.finished, len(m.cores), m.Eng.Now())
			}
			if res.Cycles == 0 {
				t.Fatalf("%s reported zero execution time", name)
			}
			t.Logf("%s: %d cycles, pmWrites=%d stats:\n%s", name, res.Cycles, res.PMWrites, res.Stats)
		})
	}
}

// TestModelOrderingSanity checks the performance relationships the paper
// reports: baseline is slowest, eADR fastest, ASAP between HOPS and eADR.
func TestModelOrderingSanity(t *testing.T) {
	tr := smallTrace(4, 600, 2)
	cycles := map[string]uint64{}
	for _, name := range model.AllNames() {
		m, err := New(config.Default(), name, tr)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run(500_000_000)
		if !m.allDone() {
			t.Fatalf("%s did not finish", name)
		}
		cycles[name] = res.Cycles
	}
	t.Logf("cycles: %v", cycles)
	if cycles[model.NameEADR] > cycles[model.NameBaseline] {
		t.Errorf("eADR (%d) should not be slower than baseline (%d)",
			cycles[model.NameEADR], cycles[model.NameBaseline])
	}
	if cycles[model.NameASAPRP] > cycles[model.NameBaseline] {
		t.Errorf("ASAP_RP (%d) should not be slower than baseline (%d)",
			cycles[model.NameASAPRP], cycles[model.NameBaseline])
	}
	if cycles[model.NameASAPRP] > cycles[model.NameHOPSRP]*11/10 {
		t.Errorf("ASAP_RP (%d) should not be more than 10%% slower than HOPS_RP (%d)",
			cycles[model.NameASAPRP], cycles[model.NameHOPSRP])
	}
}

// TestSingleThreadNoDeps: a single-threaded run must detect no cross-thread
// dependencies under any model.
func TestSingleThreadNoDeps(t *testing.T) {
	tr := smallTrace(1, 500, 3)
	for _, name := range model.AllNames() {
		m, err := New(config.Default(), name, tr)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(100_000_000)
		if !m.allDone() {
			t.Fatalf("%s did not finish", name)
		}
		if got := m.St.Get("interTEpochConflict"); got != 0 {
			t.Errorf("%s: expected 0 cross-thread deps for 1 thread, got %d", name, got)
		}
	}
}

// TestScheduleCrashHalts: a crash stops the run at the scheduled cycle and
// drains the ADR domain.
func TestScheduleCrashHalts(t *testing.T) {
	tr := smallTrace(4, 400, 5)
	m, err := New(config.Default(), model.NameASAPRP, tr)
	if err != nil {
		t.Fatal(err)
	}
	m.ScheduleCrash(20_000)
	res := m.Run(0)
	if !res.Crashed {
		t.Fatal("crash did not fire")
	}
	if m.Eng.Now() != 20_000 {
		t.Fatalf("halted at %d, want 20000", m.Eng.Now())
	}
	for _, mc := range m.MCs {
		if mc.WPQ.Len() != 0 {
			t.Fatal("WPQ not drained by the ADR crash path")
		}
		if mc.RT != nil && mc.RT.Occupancy() != 0 {
			t.Fatal("recovery table not reset after crash")
		}
	}
}

// TestSecondResumePanics: a model finishes each operation with exactly one
// Resume; a second Resume of the same core finds no operation in flight and
// panics instead of stepping the core twice.
func TestSecondResumePanics(t *testing.T) {
	var b trace.Builder
	b.Ofence()
	b.Compute(10)
	m, err := New(config.Default(), model.NameEADR, &trace.Trace{Name: "resume", Threads: [][]trace.Op{b.Ops()}})
	if err != nil {
		t.Fatal(err)
	}
	m.Advance(0)             // core 0 steps to its Ofence
	m.RunEvent(mEvOfence, 0) // eADR finishes the Ofence and resumes the core
	if m.cores[0].inflight != opNone {
		t.Fatalf("core still waits on operation kind %d after its Resume", m.cores[0].inflight)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Resume did not panic")
		}
	}()
	m.Resume(0)
}

// TestLockHandoffFIFO: contended lock waiters resume in arrival order.
func TestLockHandoffFIFO(t *testing.T) {
	// Three threads take the same lock, write a private line, release.
	tr := &trace.Trace{Name: "locks"}
	for th := 0; th < 3; th++ {
		var b trace.Builder
		for i := 0; i < 30; i++ {
			b.Acquire(1 << 20)
			b.StoreP(uint64(1<<30 + th*4096 + i*64))
			b.Release(1 << 20)
		}
		b.Dfence()
		tr.Threads = append(tr.Threads, b.Ops())
	}
	m, err := New(config.Default(), model.NameASAPRP, tr)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	if !m.allDone() {
		t.Fatal("lock convoy deadlocked")
	}
	if m.St.Get("lockContended") == 0 {
		t.Fatal("expected lock contention")
	}
}

// TestWBBParksEvictions: a tiny LLC forces evictions of lines whose writes
// are still buffered; the write-back buffer must park them.
func TestWBBParksEvictions(t *testing.T) {
	cfg := config.Default()
	cfg.LLCSize = 64 * 32 // 32 lines
	cfg.LLCWays = 2
	var b trace.Builder
	// Stream stores over many lines with no fences: PB holds writes while
	// LLC evicts under pressure.
	for i := 0; i < 400; i++ {
		b.StoreP(uint64(1<<30 + i*64))
	}
	b.Dfence()
	tr := &trace.Trace{Name: "wbb", Threads: [][]trace.Op{b.Ops()}}
	m, err := New(cfg, model.NameHOPSRP, tr)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	if m.St.Get("wbbParked") == 0 {
		t.Error("no evictions parked in the WBB despite LLC pressure")
	}
}

// TestExtendedModelsComplete: the related-work designs also pass the
// forward-progress test on the contended trace.
func TestExtendedModelsComplete(t *testing.T) {
	tr := smallTrace(4, 300, 8)
	for _, name := range []string{model.NameLBPP, model.NameDPO, model.NameLRP, model.NamePMEMSpec} {
		m, err := New(config.Default(), name, tr)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(500_000_000)
		if !m.allDone() {
			t.Fatalf("%s deadlocked (finished %d/%d)", name, m.finished, len(m.cores))
		}
	}
}

// TestLedgerRecordsEverything: every persistent store lands in the ledger
// with its epoch, under every model.
func TestLedgerRecordsEverything(t *testing.T) {
	tr := smallTrace(2, 150, 9)
	stores := 0
	for _, th := range tr.Threads {
		for _, op := range th {
			if op.Kind == trace.OpStore && op.Persistent {
				stores++
			}
		}
	}
	for _, name := range model.ExtendedNames() {
		m, err := New(config.Default(), name, tr)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(0)
		n := 0
		m.Ledger.Lines(func(_ mem.Line, ws []WriteRec) { n += len(ws) })
		if n != stores {
			t.Errorf("%s: ledger has %d writes, trace has %d persistent stores", name, n, stores)
		}
	}
}
