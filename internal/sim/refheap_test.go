package sim

import "container/heap"

// refEvent and refEngine are a reference implementation of the scheduler
// built on container/heap, kept test-only: the shipped Engine replaced it
// with a timing wheel over a 4-ary overflow heap, and the differential
// tests drive both with identical randomized workloads to prove the
// dispatch order — the only observable the simulator depends on — is
// unchanged.
type refEvent struct {
	when Cycles
	seq  uint64
	fn   func()
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refEngine mirrors Engine's scheduling semantics over the reference heap,
// including every way of stopping a run.
type refEngine struct {
	now    Cycles
	seq    uint64
	halted bool
	events refHeap
}

func (e *refEngine) Now() Cycles { return e.now }

func (e *refEngine) At(when Cycles, fn func()) {
	if when < e.now {
		panic("refEngine: event scheduled in the past")
	}
	heap.Push(&e.events, refEvent{when: when, seq: e.seq, fn: fn})
	e.seq++
}

func (e *refEngine) After(delay Cycles, fn func()) { e.At(e.now+delay, fn) }

func (e *refEngine) Pending() int { return len(e.events) }

func (e *refEngine) Halt() { e.halted = true }

func (e *refEngine) dispatch() {
	next := heap.Pop(&e.events).(refEvent)
	e.now = next.when
	next.fn()
}

func (e *refEngine) Run(limit Cycles) Cycles {
	for len(e.events) > 0 && !e.halted {
		if limit != 0 && e.events[0].when > limit {
			if limit > e.now {
				e.now = limit
			}
			return e.now
		}
		e.dispatch()
	}
	return e.now
}

func (e *refEngine) RunUntil(limit Cycles) Cycles {
	for len(e.events) > 0 && !e.halted && e.events[0].when <= limit {
		e.dispatch()
	}
	if !e.halted && e.now < limit {
		e.now = limit
	}
	return e.now
}

func (e *refEngine) Step() bool {
	if len(e.events) == 0 || e.halted {
		return false
	}
	e.dispatch()
	return true
}

func (e *refEngine) JumpTo(when Cycles) {
	if when < e.now || (len(e.events) > 0 && e.events[0].when < when) {
		panic("refEngine: clock jump into the past or past a pending event")
	}
	e.now = when
}
