package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// stopScheduler is the surface the wheel-edge workload drives: scheduling
// at absolute and relative cycles, plus every way of stopping a run.
// Engine (through testEngine) and refEngine both implement it.
type stopScheduler interface {
	scheduler
	At(when Cycles, fn func())
	Run(limit Cycles) Cycles
	RunUntil(limit Cycles) Cycles
	Step() bool
	Halt()
	JumpTo(when Cycles)
	Pending() int
}

// wheelEdges are the delays at which an event crosses between the wheel
// and the overflow heap, or lands on a later lap of the wheel.
var wheelEdges = []Cycles{
	wheelSize - 1, wheelSize, wheelSize + 1,
	2*wheelSize - 1, 2 * wheelSize, 2*wheelSize + 1,
	3*wheelSize - 1, 3 * wheelSize,
}

// runWheelWorkload is runDifferentialWorkload stretched over the wheel's
// edges. Delays span 0 to 3×wheelSize, drawing the exact crossing delays
// (wheelEdges) often and short same-cycle-heavy delays as well. Some
// children are scheduled at the cycle of a pending event that went to the
// overflow heap, from a clock at which that cycle is inside the wheel: one
// cycle then holds events of both queues, the overflow one older. ties
// counts those. Randomness is consumed in dispatch order, so two
// schedulers that dispatch identically record identical sequences.
func runWheelWorkload(s stopScheduler, seed int64, drive func()) (got []dispatchRecord, ties int) {
	rng := rand.New(rand.NewSource(seed))
	nextID := 0
	budget := 3000
	var far []Cycles // cycles of events scheduled into the overflow range

	var at func(when Cycles)
	at = func(when Cycles) {
		id := nextID
		nextID++
		if when-s.Now() >= wheelSize {
			far = append(far, when)
		}
		s.At(when, func() {
			got = append(got, dispatchRecord{id: id, when: s.Now()})
			for n := rng.Intn(4); n > 0 && budget > 0; n-- {
				budget--
				now := s.Now()
				switch r := rng.Intn(10); {
				case r < 4:
					at(now + Cycles(rng.Intn(25)))
				case r < 6:
					at(now + wheelEdges[rng.Intn(len(wheelEdges))])
				case r < 8:
					at(now + Cycles(rng.Intn(3*wheelSize+1)))
				default:
					if w, ok := pickFar(&far, now); ok {
						ties++
						at(w)
					} else {
						at(now + Cycles(rng.Intn(5)))
					}
				}
			}
		})
	}
	for i := 0; i < 50; i++ {
		budget--
		if i%2 == 0 {
			at(Cycles(rng.Intn(20)))
		} else {
			at(wheelEdges[rng.Intn(len(wheelEdges))])
		}
	}
	drive()
	return got, ties
}

// pickFar returns the first recorded overflow cycle that is now inside the
// wheel's range but still in the future, dropping cycles already passed.
func pickFar(far *[]Cycles, now Cycles) (Cycles, bool) {
	live := (*far)[:0]
	for _, w := range *far {
		if w > now {
			live = append(live, w)
		}
	}
	*far = live
	for _, w := range live {
		if w-now < wheelSize {
			return w, true
		}
	}
	return 0, false
}

// stopRecord is what a driver observes after one stop: the clock and the
// number of events still pending.
type stopRecord struct {
	now     Cycles
	pending int
}

// driveStops runs s to completion through a seeded mix of Run(limit),
// RunUntil, RunUntil+JumpTo (the crash injector's pair) and Step stops.
// Every limit lands on a wheel wrap boundary (a multiple of wheelSize) or
// one cycle either side of it.
func driveStops(s stopScheduler, seed int64) []stopRecord {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	var stops []stopRecord
	for s.Pending() > 0 {
		b := (s.Now()/wheelSize+1+Cycles(rng.Intn(2)))*wheelSize - 1 + Cycles(rng.Intn(3))
		switch rng.Intn(4) {
		case 0:
			s.Run(b)
		case 1:
			s.RunUntil(b)
		case 2:
			s.RunUntil(b - 1)
			s.JumpTo(b)
		default:
			for n := 1 + rng.Intn(8); n > 0 && s.Step(); n-- {
			}
		}
		stops = append(stops, stopRecord{s.Now(), s.Pending()})
	}
	return stops
}

// TestWheelEdges drives the engine and the container/heap reference with
// workloads that cross the wheel/overflow boundary, share cycles between
// the two queues and wrap around the wheel, under three drivers: one
// Run(0), a mix of stops on wrap boundaries, and a Halt fired from an
// event on a wrap boundary. Every seed must dispatch identically and stop
// at identical clocks.
func TestWheelEdges(t *testing.T) {
	drivers := []string{"run", "stops", "halt"}
	totalTies, sawOverflow := 0, false
	for seed := int64(1); seed <= 24; seed++ {
		mode := drivers[seed%3]
		t.Run(fmt.Sprintf("seed%d/%s", seed, mode), func(t *testing.T) {
			drive := func(s stopScheduler) func() []stopRecord {
				var stops []stopRecord
				return func() []stopRecord {
					switch mode {
					case "run":
						s.Run(0)
					case "stops":
						stops = driveStops(s, seed)
					case "halt":
						s.At(Cycles(2+seed%3)*wheelSize, s.Halt)
						s.Run(0)
						if s.Step() {
							t.Errorf("Step dispatched after Halt")
						}
					}
					return append(stops, stopRecord{s.Now(), s.Pending()})
				}
			}

			eng := newTestEngine()
			var engStops []stopRecord
			driveEng := drive(eng)
			gotNew, ties := runWheelWorkload(eng, seed, func() {
				if eng.PendingOverflow() > 0 {
					sawOverflow = true
				}
				engStops = driveEng()
			})

			ref := &refEngine{}
			var refStops []stopRecord
			driveRef := drive(ref)
			gotRef, refTies := runWheelWorkload(ref, seed, func() { refStops = driveRef() })

			if len(gotNew) != len(gotRef) {
				t.Fatalf("dispatch counts differ: engine %d, reference %d", len(gotNew), len(gotRef))
			}
			for i := range gotNew {
				if gotNew[i] != gotRef[i] {
					t.Fatalf("dispatch %d diverges: engine %+v, reference %+v", i, gotNew[i], gotRef[i])
				}
			}
			if !reflect.DeepEqual(engStops, refStops) || ties != refTies {
				t.Fatalf("stops diverge: engine %v (ties %d), reference %v (ties %d)", engStops, ties, refStops, refTies)
			}
			totalTies += ties
		})
	}
	if totalTies == 0 || !sawOverflow {
		t.Fatalf("workload never exercised the overflow heap (%v) or a shared cycle (%d ties)", sawOverflow, totalTies)
	}
}

// TestWheelOverflowTie pins the order argument directly: events delayed
// wheelSize-1, wheelSize and wheelSize+1 cycles straddle the two queues,
// and an overflow event sharing its cycle with a later-scheduled wheel
// event fires first.
func TestWheelOverflowTie(t *testing.T) {
	e := newTestEngine()
	var got []string
	rec := func(name string) func() { return func() { got = append(got, name) } }
	e.After(wheelSize, rec("A")) // overflow, cycle 1024
	e.After(wheelSize-1, rec("B"))
	e.After(wheelSize+1, rec("C")) // overflow, cycle 1025
	e.After(1, func() {
		e.After(wheelSize-1, rec("D")) // wheel, cycle 1024
		e.After(wheelSize, rec("E"))   // overflow, cycle 1025
	})
	if e.PendingOverflow() != 2 || e.Pending() != 4 {
		t.Fatalf("pending %d (overflow %d), want 4 (2)", e.Pending(), e.PendingOverflow())
	}
	e.Run(0)
	if want := "B A D C E"; fmt.Sprint(got) != "["+want+"]" {
		t.Fatalf("dispatch order %v, want [%s]", got, want)
	}
	if e.Now() != wheelSize+1 || e.Pending() != 0 {
		t.Fatalf("clock %d, pending %d; want %d, 0", e.Now(), e.Pending(), wheelSize+1)
	}
}

// TestJumpPastPendingPanics: the clock may not skip a pending event — it
// would have to fire in the past, and the wheel could no longer place it.
func TestJumpPastPendingPanics(t *testing.T) {
	e := newTestEngine()
	e.At(10, func() {})
	e.JumpTo(10) // onto the event's cycle is fine
	defer func() {
		if recover() == nil {
			t.Fatal("jumping past a pending event did not panic")
		}
	}()
	e.JumpTo(11)
}

// mixedOp reschedules itself at delays that alternate between the wheel
// and the overflow heap, fanning out to keep several events pending.
type mixedOp struct {
	e *Engine
	n int
}

var mixedDelays = [...]Cycles{3, wheelSize - 1, wheelSize, 0, 2*wheelSize + 5, 17, wheelSize + 1}

func (m *mixedOp) RunEvent(kind int, arg uint64) {
	if m.n <= 0 {
		return
	}
	m.n--
	m.e.AfterOp(mixedDelays[arg%uint64(len(mixedDelays))], m, 0, arg+1)
	if arg%3 == 0 {
		m.e.AfterOp(mixedDelays[(arg+2)%uint64(len(mixedDelays))], m, 0, arg+2)
	}
}

// TestMixedQueueZeroAlloc pins the zero-allocation contract for both
// queues: once warmed to steady-state capacity, an engine schedules and
// dispatches a workload mixing wheel and overflow events without
// allocating.
func TestMixedQueueZeroAlloc(t *testing.T) {
	e := NewEngine()
	op := &mixedOp{e: e}
	run := func() {
		op.n = 2000
		for i := uint64(0); i < 8; i++ {
			e.AfterOp(mixedDelays[i%uint64(len(mixedDelays))], op, 0, i)
		}
		e.Run(0)
	}
	run() // warm: the slab and the overflow heap reach capacity
	if e.Dispatched() < 2000 {
		t.Fatalf("warm-up dispatched %d events", e.Dispatched())
	}
	allocs := testing.AllocsPerRun(10, run)
	if allocs > 0 {
		t.Fatalf("mixed wheel/overflow workload allocated %.1f times per run, want 0", allocs)
	}
}

// TestWheelWrapsWithinStartWord: the only pending wheel event sits in the
// clock's own bitmap word but below the clock's bit — it lies a lap ahead
// — so the scan must come back around to the starting word.
func TestWheelWrapsWithinStartWord(t *testing.T) {
	e := newTestEngine()
	var at []Cycles
	e.At(5, func() {
		e.After(wheelSize-2, func() { at = append(at, e.Now()) }) // bucket 3
	})
	e.Run(0)
	if len(at) != 1 || at[0] != wheelSize+3 {
		t.Fatalf("wrapped event fired at %v, want [%d]", at, wheelSize+3)
	}
}

// TestRunLimitBelowClock: a Run limit below the clock dispatches nothing
// and leaves the clock where it is, so pending wheel events stay inside
// the wheel's window and later events still fire in order.
func TestRunLimitBelowClock(t *testing.T) {
	e := newTestEngine()
	var got []Cycles
	rec := func() { got = append(got, e.Now()) }
	e.At(600, rec)
	e.At(1500, rec)
	e.RunUntil(500)
	if end := e.Run(100); end != 500 || e.Pending() != 2 {
		t.Fatalf("Run(100) at clock 500 returned %d with %d pending; want 500, 2", end, e.Pending())
	}
	e.After(1023, rec) // cycle 1523: must not overtake the events at 600 and 1500
	e.Run(0)
	if fmt.Sprint(got) != "[600 1500 1523]" {
		t.Fatalf("dispatch cycles %v, want [600 1500 1523]", got)
	}
}
