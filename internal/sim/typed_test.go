package sim

import (
	"reflect"
	"testing"
)

// recordingOp is a typed-event receiver that logs (kind, arg, cycle).
type recordingOp struct {
	eng *Engine
	got [][3]uint64
}

func (r *recordingOp) RunEvent(kind int, arg uint64) {
	r.got = append(r.got, [3]uint64{uint64(kind), arg, r.eng.Now()})
}

// TestTypedEvents checks that ScheduleOp/AfterOp dispatch in (when, seq)
// order interleaved with another receiver's events, carrying kind and arg
// intact.
func TestTypedEvents(t *testing.T) {
	e := newTestEngine()
	r := &recordingOp{eng: e.Engine}
	e.ScheduleOp(20, r, 2, 200)
	e.AfterOp(10, r, 1, 100)
	closureRan := false
	e.At(15, func() { closureRan = true })
	e.AfterOp(20, r, 3, 300)
	e.Run(0)
	want := [][3]uint64{{1, 100, 10}, {2, 200, 20}, {3, 300, 20}}
	if len(r.got) != len(want) {
		t.Fatalf("dispatched %d typed events, want %d", len(r.got), len(want))
	}
	for i, w := range want {
		if r.got[i] != w {
			t.Fatalf("typed event %d = %v, want %v", i, r.got[i], w)
		}
	}
	if !closureRan {
		t.Fatal("closure event interleaved with typed events did not run")
	}
}

// TestTypedTieBreakWithClosures: events of two receivers (a kind-logging
// one and the test engine's closure slots) scheduled for the same cycle
// fire in schedule order, regardless of receiver.
func TestTypedTieBreakWithClosures(t *testing.T) {
	e := newTestEngine()
	var order []int
	r := &funcOp{fn: func(kind int, _ uint64) { order = append(order, kind) }}
	e.ScheduleOp(5, r, 0, 0)
	e.At(5, func() { order = append(order, 1) })
	e.ScheduleOp(5, r, 2, 0)
	e.At(5, func() { order = append(order, 3) })
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle mixed-form events out of schedule order: %v", order)
		}
	}
}

type funcOp struct {
	fn func(kind int, arg uint64)
}

func (f *funcOp) RunEvent(kind int, arg uint64) { f.fn(kind, arg) }

// TestScheduleOpPastPanics mirrors TestSchedulePastPanics for the typed form.
func TestScheduleOpPastPanics(t *testing.T) {
	e := newTestEngine()
	r := &recordingOp{eng: e.Engine}
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleOp in the past did not panic")
			}
		}()
		e.ScheduleOp(5, r, 0, 0)
	})
	e.Run(0)
}

// TestTypedEventZeroAlloc pins the zero-allocation contract of the typed
// scheduling path: a steady-state AfterOp reschedule chain must not
// allocate at all.
func TestTypedEventZeroAlloc(t *testing.T) {
	e := NewEngine()
	var op *funcOp
	n := 0
	op = &funcOp{fn: func(int, uint64) {
		n++
		if n < 1000 {
			e.AfterOp(3, op, 0, 0)
		}
	}}
	// Warm up so the event slice reaches steady-state capacity.
	e.AfterOp(1, op, 0, 0)
	e.Run(0)
	n = 0
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		e.AfterOp(1, op, 0, 0)
		e.Run(0)
	})
	if allocs > 0 {
		t.Fatalf("typed event chain allocated %.1f times per run, want 0", allocs)
	}
}

// TestPopReleasesEventMemory: neither queue element (the overflow heap's
// event, the wheel slab's slot) holds a pointer, so a dispatched event can
// keep nothing reachable through spare capacity or the free list, and
// heap sifts move plain 32-byte values.
func TestPopReleasesEventMemory(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(event{}), reflect.TypeOf(slot{})} {
		if typ.Size() != 32 {
			t.Fatalf("%s is %d bytes, want 32", typ.Name(), typ.Size())
		}
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Uint64, reflect.Int32:
			default:
				t.Fatalf("%s field %s has kind %v; queue elements must stay pointer-free", typ.Name(), f.Name, f.Type.Kind())
			}
		}
	}
	e := NewEngine()
	r := &recordingOp{eng: e}
	e.AfterOp(1, r, 0, 0)
	e.Run(0)
	if e.Pending() != 0 || len(r.got) != 1 {
		t.Fatalf("pending %d, dispatched %d; want 0 and 1", e.Pending(), len(r.got))
	}
}
