// Package sim provides the discrete-event simulation engine that drives every
// timing model in this repository. Time is measured in CPU cycles of a 2 GHz
// clock (1 ns = 2 cycles), matching the configuration in Table II of the
// ASAP paper.
package sim

import (
	"fmt"
	"math/bits"
)

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

// event is one overflow-heap entry: a callback scheduled at least
// wheelSize cycles ahead of the clock when it was scheduled. seq breaks
// ties deterministically so that two events for the same cycle fire in
// schedule order.
//
// The struct is deliberately pointer-free: the heap permutes events on
// every push and pop, and if the element held an interface directly, every
// one of those moves would run a GC write barrier. Instead an event holds
// opIdx, an index into the engine's registered receiver table. A 32-byte
// pointer-free element makes heap sifts plain memmoves and packs two
// events per cache line.
type event struct {
	when  Cycles
	seq   uint64
	arg   uint64
	kind  int32
	opIdx int32 // index into Engine.ops
}

// slot is one entry of the wheel's event slab. A pending slot sits in the
// FIFO of bucket when&wheelMask; a dispatched slot sits on the free list.
// next links either list by slab index, with 0 (the reserved sentinel
// slot) ending it. Like event it is pointer-free and 32 bytes. It needs no
// seq: a bucket's FIFO order is its schedule order (see Engine).
type slot struct {
	when  Cycles
	arg   uint64
	kind  int32
	opIdx int32
	next  int32
}

// bucket is one wheel bucket: the FIFO of slots pending at one cycle.
// tail is meaningful only while head is non-zero.
type bucket struct{ head, tail int32 }

// The timing wheel: wheelSize one-cycle buckets indexed by when&wheelMask.
const (
	wheelBits  = 10
	wheelSize  = 1 << wheelBits
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
)

// Engine is a single-threaded discrete-event simulator. Components schedule
// callbacks at future cycles; Run dispatches them in (when, seq) order,
// where seq numbers events in schedule order. Engine is not safe for
// concurrent use: the whole simulated machine runs on one goroutine, which
// keeps the model deterministic.
//
// Pending events live in one of two queues, chosen when they are scheduled:
//
//   - The timing wheel holds every event less than wheelSize cycles ahead:
//     wheelSize one-cycle buckets indexed by when&wheelMask, each an
//     intrusive FIFO linked through a pointer-free slab of slots with a
//     free list. Every wheel event lies in [now, now+wheelSize) — it did
//     when scheduled, and the clock never passes a pending event — so each
//     bucket holds exactly one cycle's events, and scanning the occupancy
//     bitmap circularly from the clock's bucket finds the earliest cycle.
//     Schedule and dispatch are O(1).
//   - Events wheelSize or more cycles ahead go to the overflow queue, an
//     inlined 4-ary min-heap ordered by (when, seq). Simulated delays are
//     short, so it is rarely used.
//
// Why the order is still (when, seq): seq grows with schedule time, so a
// bucket's FIFO order is its seq order. An overflow event can share its
// cycle with wheel events, but it is always the older one: it was
// scheduled at a clock at least wheelSize below that cycle, they at a
// clock above it. So each dispatch takes the earlier of the first
// bucket's head and the overflow root, preferring the overflow root on a
// tie. (when, seq) is a total order, so dispatch is byte-identical to the
// container/heap scheduler the engine once was (pinned by
// TestDifferentialDeterminism and TestWheelEdges).
type Engine struct {
	now        Cycles
	seq        uint64
	dispatched uint64 // events dispatched so far (see Dispatched)
	halted     bool
	onDispatch func(when Cycles)

	wheel    [wheelSize]bucket
	occupied [wheelWords]uint64 // bit b set: wheel[b] is non-empty
	slab     []slot             // slab[0] is the list sentinel, never used
	free     int32              // head of the free slot list
	inWheel  int                // events pending in the wheel
	overflow []event            // 4-ary min-heap by (when, seq)

	// ops holds the typed-event receivers ever scheduled on this engine,
	// deduplicated by identity; events reference them by index so queue
	// entries stay pointer-free. A machine registers only a handful of
	// receivers (machine, model, controllers), so the lookup in
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
	opIdx := e.opIndex(op)
	if when-e.now >= wheelSize {
		e.pushOverflow(when, opIdx, int32(kind), arg)
		e.seq++
		return
	}
	// Take a slot and fill it in place: building a slot value and
	// copying it in costs a store-forwarding stall per event.
	i := e.free
	if i != 0 {
		e.free = e.slab[i].next
	} else {
		if len(e.slab) == 0 {
			e.slab = grow(e.slab) // the sentinel
		}
		e.slab = grow(e.slab)
		i = int32(len(e.slab) - 1)
	}
	s := &e.slab[i]
	s.when = when
	s.arg = arg
	s.kind = int32(kind)
	s.opIdx = opIdx
	s.next = 0
	b := &e.wheel[when&wheelMask]
	if b.head == 0 {
		b.head = i
		e.occupied[(when&wheelMask)>>6] |= 1 << (when & 63)
	} else {
		e.slab[b.tail].next = i
	}
	b.tail = i
	e.inWheel++
	e.seq++
}

// grow extends s by one zero element. It is the one growth point of the
// engine's queue storage (wheel slab and overflow heap), so the steady
// state reuses capacity and allocates nothing.
func grow[T any](s []T) []T {
	var zero T
	return append(s, zero) //asaplint:ignore alloccheck queue storage reaches steady-state capacity, then appends reuse it
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
func (e *Engine) Pending() int { return e.inWheel + len(e.overflow) }

// PendingOverflow reports how many pending events wait in the overflow
// heap rather than the timing wheel: those scheduled wheelSize or more
// cycles ahead of the clock at the time. Tests use it to build states
// that exercise both queues.
func (e *Engine) PendingOverflow() int { return len(e.overflow) }

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
// the cycle at which it stopped. Stopping at the limit moves the clock to
// it, never backwards: a limit below the clock dispatches nothing.
func (e *Engine) Run(limit Cycles) Cycles {
	for !e.halted {
		when, b, ok := e.front()
		if !ok {
			break
		}
		if limit != 0 && when > limit {
			if limit > e.now {
				e.now = limit
			}
			return e.now
		}
		e.dispatch(b)
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
	for !e.halted {
		when, b, ok := e.front()
		if !ok || when > limit {
			break
		}
		e.dispatch(b)
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
// same-cycle work. Jumping backwards panics like scheduling in the past,
// and so does jumping past a pending event, which would have to fire in
// the past.
func (e *Engine) JumpTo(when Cycles) {
	if when < e.now {
		panic("sim: clock jump into the past")
	}
	if next, _, ok := e.front(); ok && next < when {
		panic("sim: clock jump past a pending event")
	}
	e.now = when
}

// RegisterOp pre-registers a typed-event receiver, fixing its slot in the
// receiver table at construction time instead of first-schedule time. The
// slot index never influences dispatch order — (when, seq) does — but a
// checkpoint image stores pending events by receiver index, so machines
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
	if e.halted {
		return false
	}
	_, b, ok := e.front()
	if !ok {
		return false
	}
	e.dispatch(b)
	return true
}

// front locates the next event to dispatch: its cycle, and the wheel
// bucket holding it, or -1 when it is the overflow root. ok is false when
// nothing is pending. On a tie the overflow root wins: it is the older
// event (see Engine).
//
//asap:hot the event loop finds every dispatched event through here
func (e *Engine) front() (when Cycles, b int, ok bool) {
	if e.inWheel > 0 {
		b = e.nextBucket()
		when = e.now + Cycles(b-int(e.now&wheelMask))&wheelMask
		if len(e.overflow) == 0 || when < e.overflow[0].when {
			return when, b, true
		}
	}
	if len(e.overflow) > 0 {
		return e.overflow[0].when, -1, true
	}
	return 0, 0, false
}

// nextBucket returns the first occupied bucket at or after the clock's,
// wrapping around the wheel. The wheel must not be empty. Because every
// wheel event lies in [now, now+wheelSize), circular bucket order from
// the clock's bucket is time order; the last word visited is the starting
// word again, whose bits below the start are the wrapped-around cycles.
func (e *Engine) nextBucket() int {
	start := int(e.now & wheelMask)
	w := start >> 6
	if m := e.occupied[w] >> (start & 63); m != 0 {
		return start + bits.TrailingZeros64(m)
	}
	for n := 1; n <= wheelWords; n++ {
		w = (w + 1) & (wheelWords - 1)
		if m := e.occupied[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	panic("sim: wheel count and occupancy bitmap disagree")
}

// dispatch removes the next event — the head of bucket b, or the overflow
// root when b is -1 — advances the clock, and runs the callback. It is the
// single dispatch path shared by Run, RunUntil and Step. The event's
// fields are read straight out of its slot, which returns to the free list
// before the callback runs (the callback may schedule into it).
//
//asap:hot the event loop: every simulated cycle of work funnels through here
func (e *Engine) dispatch(b int) {
	var (
		when        Cycles
		arg         uint64
		kind, opIdx int32
	)
	if b >= 0 {
		bk := &e.wheel[b]
		i := bk.head
		s := &e.slab[i]
		when, arg, kind, opIdx = s.when, s.arg, s.kind, s.opIdx
		bk.head = s.next
		if bk.head == 0 {
			bk.tail = 0
			e.occupied[b>>6] &^= 1 << (b & 63)
		}
		s.next = e.free
		e.free = i
		e.inWheel--
	} else {
		r := &e.overflow[0]
		when, arg, kind, opIdx = r.when, r.arg, r.kind, r.opIdx
		e.popOverflow()
	}
	e.now = when
	e.dispatched++
	if e.onDispatch != nil {
		e.onDispatch(when) //asaplint:ignore alloccheck nil-guarded observability hook; off on measured runs
	}
	e.ops[opIdx].RunEvent(int(kind), arg)
}

// less orders overflow heap slots by (when, seq).
func (e *Engine) less(i, j int) bool {
	a, b := &e.overflow[i], &e.overflow[j]
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// pushOverflow adds an event to the overflow heap, filling the new tail
// slot in place and sifting it up.
func (e *Engine) pushOverflow(when Cycles, opIdx, kind int32, arg uint64) {
	e.overflow = grow(e.overflow)
	i := len(e.overflow) - 1
	ev := &e.overflow[i]
	ev.when = when
	ev.seq = e.seq
	ev.arg = arg
	ev.kind = kind
	ev.opIdx = opIdx
	for i > 0 {
		parent := (i - 1) / 4
		if !e.less(i, parent) {
			break
		}
		e.overflow[i], e.overflow[parent] = e.overflow[parent], e.overflow[i]
		i = parent
	}
}

// popOverflow removes the overflow root. Events are pointer-free, so the
// vacated tail slot needs no zeroing for the collector's sake.
func (e *Engine) popOverflow() {
	n := len(e.overflow) - 1
	e.overflow[0] = e.overflow[n]
	e.overflow = e.overflow[:n]
	if n > 1 {
		e.siftDown(0)
	}
}

// siftDown restores the heap property below slot i: swap with the smallest
// of up to four children until neither child is smaller.
func (e *Engine) siftDown(i int) {
	n := len(e.overflow)
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
		e.overflow[i], e.overflow[min] = e.overflow[min], e.overflow[i]
		i = min
	}
}
