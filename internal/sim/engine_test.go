package sim

import (
	"testing"
	"testing/quick"
)

// testEngine lets the tests schedule plain closures: each closure gets a
// slot, and a typed event on the testEngine itself names the slot. The
// engine stays closure-free; only the test side keeps the callbacks.
type testEngine struct {
	*Engine
	fns []func()
}

func newTestEngine() *testEngine { return &testEngine{Engine: NewEngine()} }

func (e *testEngine) RunEvent(_ int, arg uint64) {
	fn := e.fns[arg]
	e.fns[arg] = nil
	fn()
}

// At schedules fn at absolute cycle when.
func (e *testEngine) At(when Cycles, fn func()) {
	e.fns = append(e.fns, fn)
	e.ScheduleOp(when, e, 0, uint64(len(e.fns)-1))
}

// After schedules fn delay cycles from now.
func (e *testEngine) After(delay Cycles, fn func()) { e.At(e.Now()+delay, fn) }

func TestEventOrdering(t *testing.T) {
	e := newTestEngine()
	var got []int
	e.After(30, func() { got = append(got, 3) })
	e.After(10, func() { got = append(got, 1) })
	e.After(20, func() { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestTieBreakIsScheduleOrder(t *testing.T) {
	e := newTestEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events dispatched out of schedule order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := newTestEngine()
	var trace []Cycles
	e.After(1, func() {
		trace = append(trace, e.Now())
		e.After(5, func() {
			trace = append(trace, e.Now())
		})
		e.After(0, func() {
			trace = append(trace, e.Now())
		})
	})
	e.Run(0)
	if len(trace) != 3 || trace[0] != 1 || trace[1] != 1 || trace[2] != 6 {
		t.Fatalf("nested schedule times wrong: %v", trace)
	}
}

func TestRunLimit(t *testing.T) {
	e := newTestEngine()
	fired := false
	e.At(100, func() { fired = true })
	end := e.Run(50)
	if fired {
		t.Fatal("event beyond the limit fired")
	}
	if end != 50 {
		t.Fatalf("Run returned %d, want 50", end)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(0)
	if !fired {
		t.Fatal("event did not fire after resuming")
	}
}

func TestHalt(t *testing.T) {
	e := newTestEngine()
	count := 0
	for i := Cycles(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run(0)
	if count != 3 {
		t.Fatalf("dispatched %d events after Halt, want 3", count)
	}
	if !e.Halted() {
		t.Fatal("Halted() false after Halt")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := newTestEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

func TestStep(t *testing.T) {
	e := newTestEngine()
	n := 0
	e.After(1, func() { n++ })
	e.After(2, func() { n++ })
	if !e.Step() || n != 1 {
		t.Fatal("first Step failed")
	}
	if !e.Step() || n != 2 {
		t.Fatal("second Step failed")
	}
	if e.Step() {
		t.Fatal("Step on empty queue reported true")
	}
}

// TestMonotonicClock (property): for any delay sequence, dispatch times are
// non-decreasing.
func TestMonotonicClock(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := newTestEngine()
		var times []Cycles
		for _, d := range delays {
			e.After(Cycles(d), func() { times = append(times, e.Now()) })
		}
		e.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNSConversion(t *testing.T) {
	if NS(1) != 2 || NS(90) != 180 || NS(175) != 350 {
		t.Fatal("NS conversion wrong for 2 GHz clock")
	}
}
