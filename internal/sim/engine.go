// Package sim provides the discrete-event simulation engine that drives every
// timing model in this repository. Time is measured in CPU cycles of a 2 GHz
// clock (1 ns = 2 cycles), matching the configuration in Table II of the
// ASAP paper.
package sim

import "fmt"

// Cycles is the simulation time unit: one cycle of the 2 GHz core clock.
type Cycles = uint64

// Frequency of the simulated cores, cycles per nanosecond.
const CyclesPerNS = 2

// NS converts nanoseconds to cycles.
func NS(ns uint64) Cycles { return ns * CyclesPerNS }

// EventOp is a scheduled callback's receiver: a long-lived component
// (machine, model, memory controller) implements RunEvent and dispatches on
// kind, with arg carrying a small payload such as a core index. Scheduling
// through ScheduleOp/AfterOp allocates nothing: the event names its
// receiver by index. kind values are private to each receiver; the engine
// never interprets them.
type EventOp interface {
	RunEvent(kind int, arg uint64)
}

// event is a scheduled callback. seq breaks ties deterministically so that
// two events scheduled for the same cycle fire in schedule order.
//
// The struct is deliberately pointer-free: the heap permutes events
// constantly (every push and pop moves several), and if the element held an
// interface directly, every one of those moves would run a GC write
// barrier — measured at a double-digit share of whole-machine time.
// Instead an event holds opIdx, an index into the engine's registered
// receiver table. A 32-byte pointer-free element makes heap sifts plain
// memmoves and packs two events per cache line.
type event struct {
	when  Cycles
	seq   uint64
	arg   uint64
	kind  int32
	opIdx int32 // index into Engine.ops
}

// Engine is a single-threaded discrete-event simulator. Components schedule
// callbacks at future cycles; Run dispatches them in time order. Engine is
// not safe for concurrent use: the whole simulated machine runs on one
// goroutine, which keeps the model deterministic.
//
// The pending-event queue is an inlined 4-ary min-heap over a typed event
// slice, ordered by (when, seq). Compared to container/heap's binary heap
// of interface{} values this removes the per-event boxing allocation, the
// Push/Pop interface-call overhead, and (being 4-ary) roughly halves the
// sift-down depth, trading it for cheaper, cache-resident sibling scans.
// Because (when, seq) is a total order, dispatch order is independent of
// heap shape: every pop removes the unique global minimum, so this heap
// dispatches byte-identically to the container/heap implementation it
// replaced (pinned by TestDifferentialDeterminism).
type Engine struct {
	now        Cycles
	seq        uint64
	dispatched uint64  // events dispatched so far (see Dispatched)
	events     []event // 4-ary min-heap by (when, seq)
	halted     bool
	onDispatch func(when Cycles)

	// ops holds the typed-event receivers ever scheduled on this engine,
	// deduplicated by identity; events reference them by index so the
	// heap elements stay pointer-free. A machine registers only a handful
	// of receivers (machine, model, controllers), so the lookup in
	// ScheduleOp is a short pointer-compare scan.
	ops []EventOp
}

// NewEngine returns an engine with the clock at cycle zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulation time in cycles.
func (e *Engine) Now() Cycles { return e.now }

// ScheduleOp schedules the event (op, kind, arg) at absolute cycle when.
// Scheduling in the past is a programming error and panics: it would
// silently corrupt causality.
func (e *Engine) ScheduleOp(when Cycles, op EventOp, kind int, arg uint64) {
	if when < e.now {
		panic("sim: event scheduled in the past")
	}
	e.push(event{when: when, seq: e.seq, opIdx: e.opIndex(op), kind: int32(kind), arg: arg})
	e.seq++
}

// opIndex returns op's slot in the receiver table, registering it on first
// use. Identity comparison of the interface pair is exact: receivers are
// long-lived pointers (machine, model, controllers).
func (e *Engine) opIndex(op EventOp) int32 {
	for i, o := range e.ops {
		if o == op {
			return int32(i)
		}
	}
	e.ops = append(e.ops, op) //asaplint:ignore alloccheck registers each long-lived receiver once; a handful of appends per run
	return int32(len(e.ops) - 1)
}

// AfterOp schedules the event (op, kind, arg) delay cycles from now.
func (e *Engine) AfterOp(delay Cycles, op EventOp, kind int, arg uint64) {
	e.ScheduleOp(e.now+delay, op, kind, arg)
}

// Pending reports the number of scheduled events not yet dispatched.
func (e *Engine) Pending() int { return len(e.events) }

// Dispatched reports the number of events dispatched since construction.
// The machine's periodic sampler publishes it as a progress metric; unlike
// the dispatch hook, the native counter is always on, so observability
// readers never see zero just because no tracer was attached.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// SetDispatchHook registers fn to be called immediately before each event
// dispatch (the observability layer counts dispatches through it). A nil fn
// clears the hook; with no hook set, dispatch pays one pointer comparison.
func (e *Engine) SetDispatchHook(fn func(when Cycles)) { e.onDispatch = fn }

// Halt stops Run before the next event is dispatched. It is typically called
// from within an event handler (e.g. by a crash injector).
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halted }

// Run dispatches events in time order until the queue drains, Halt is
// called, or the clock would pass limit (limit 0 means no limit). It returns
// the cycle at which it stopped.
func (e *Engine) Run(limit Cycles) Cycles {
	for len(e.events) > 0 && !e.halted {
		if limit != 0 && e.events[0].when > limit {
			e.now = limit
			return e.now
		}
		e.dispatch()
	}
	return e.now
}

// RunUntil dispatches every event scheduled at or before limit and leaves
// the clock exactly at limit, even when the last event fired earlier (or no
// event was pending at all). It is the checkpoint/crash-injection driver's
// "advance to cycle" primitive: unlike Run, limit 0 means cycle zero, not
// "no limit", and the clock never stops short of limit — so a capture taken
// after RunUntil(c) always observes the state the machine has at cycle c,
// with every pre-c event retired.
func (e *Engine) RunUntil(limit Cycles) Cycles {
	for len(e.events) > 0 && !e.halted && e.events[0].when <= limit {
		e.dispatch()
	}
	if !e.halted && e.now < limit {
		e.now = limit
	}
	return e.now
}

// JumpTo advances the clock to when without dispatching anything. Crash
// injection uses it to place the power-failure instant between "every event
// before the crash cycle has fired" (RunUntil(when-1)) and "no event at the
// crash cycle has" — the same machine state the scheduled-crash event used
// to observe, since it carried sequence number zero and preempted all
// same-cycle work. Jumping backwards panics like scheduling in the past.
func (e *Engine) JumpTo(when Cycles) {
	if when < e.now {
		panic("sim: clock jump into the past")
	}
	e.now = when
}

// RegisterOp pre-registers a typed-event receiver, fixing its slot in the
// receiver table at construction time instead of first-schedule time. The
// slot index never influences dispatch order — (when, seq) does — but a
// checkpoint image stores heap events by receiver index, so machines
// register their receivers in one canonical construction order to make the
// table reproducible between the machine that saved an image and the fresh
// machine that restores it.
func (e *Engine) RegisterOp(op EventOp) { e.opIndex(op) }

// Quiesce verifies the engine holds no state a checkpoint image cannot
// carry. Pending events are pointer-free and serialize by receiver index,
// so the one such state is an attached dispatch hook.
func (e *Engine) Quiesce() error {
	if e.onDispatch != nil {
		return fmt.Errorf("sim: dispatch hook attached")
	}
	return nil
}

// Step dispatches exactly one event if available and reports whether it did.
func (e *Engine) Step() bool {
	if len(e.events) == 0 || e.halted {
		return false
	}
	e.dispatch()
	return true
}

// dispatch pops the minimum event, advances the clock, and runs the
// callback. It is the single dispatch path shared by Run and Step.
//
//asap:hot the event loop: every simulated cycle of work funnels through here
func (e *Engine) dispatch() {
	next := e.events[0]
	e.popMin()
	e.now = next.when
	e.dispatched++
	if e.onDispatch != nil {
		e.onDispatch(next.when) //asaplint:ignore alloccheck nil-guarded observability hook; off on measured runs
	}
	e.ops[next.opIdx].RunEvent(int(next.kind), next.arg)
}

// less orders heap slots by (when, seq).
func (e *Engine) less(i, j int) bool {
	a, b := &e.events[i], &e.events[j]
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// push appends ev and restores the heap property by sifting it up.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev) //asaplint:ignore alloccheck heap storage reaches steady-state capacity, then appends reuse it
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(i, parent) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// popMin removes the root. Events are pointer-free, so the vacated tail
// slot needs no zeroing for the collector's sake.
func (e *Engine) popMin() {
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// siftDown restores the heap property below slot i: swap with the smallest
// of up to four children until neither child is smaller.
func (e *Engine) siftDown(i int) {
	n := len(e.events)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(c, min) {
				min = c
			}
		}
		if !e.less(min, i) {
			return
		}
		e.events[i], e.events[min] = e.events[min], e.events[i]
		i = min
	}
}
