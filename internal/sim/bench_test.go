package sim

import "testing"

// benchTickOp is a self-rescheduling event receiver: each dispatch
// schedules the next one 3 cycles later until N events ran.
type benchTickOp struct {
	e *Engine
	n int
	N int
}

func (t *benchTickOp) RunEvent(kind int, arg uint64) {
	t.n++
	if t.n < t.N {
		t.e.AfterOp(3, t, 0, 0)
	}
}

// BenchmarkEventThroughput measures raw simulator event dispatch rate — the
// figure that bounds how much simulated time per wall-second every
// experiment gets. Gated at 0 allocs/op through benchdiff.
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine()
	op := &benchTickOp{e: e, N: b.N}
	e.AfterOp(1, op, 0, 0)
	b.ResetTimer()
	e.Run(0)
}

// BenchmarkEventThroughputHooked is BenchmarkEventThroughput with a
// dispatch hook attached — the tracing-on configuration. The delta
// against BenchmarkEventThroughput is the cost tracing adds per
// dispatched event; CI gates both through benchdiff.
func BenchmarkEventThroughputHooked(b *testing.B) {
	e := NewEngine()
	var dispatched uint64
	e.SetDispatchHook(func(Cycles) { dispatched++ })
	op := &benchTickOp{e: e, N: b.N}
	e.AfterOp(1, op, 0, 0)
	b.ResetTimer()
	e.Run(0)
	if dispatched == 0 {
		b.Fatal("dispatch hook never fired")
	}
}

// fanoutOp is BenchmarkEventFanout's receiver: every tenth of the initial
// events (kind 0, arg its index) schedules one child (kind 1) 5 cycles on.
type fanoutOp struct{ e *Engine }

func (f *fanoutOp) RunEvent(kind int, arg uint64) {
	if kind == 0 && arg%10 == 0 {
		f.e.AfterOp(5, f, 1, 0)
	}
}

// BenchmarkEventFanout measures dispatch with a deep, wide queue (the
// pattern MC drain + per-core flushers produce).
func BenchmarkEventFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		op := &fanoutOp{e: e}
		for j := 0; j < 1000; j++ {
			e.ScheduleOp(Cycles(j%97+1), op, 0, uint64(j))
		}
		e.Run(0)
	}
}
