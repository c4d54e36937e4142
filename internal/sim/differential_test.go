package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// scheduler is the common surface of Engine and refEngine the differential
// workload drives.
type scheduler interface {
	Now() Cycles
	After(delay Cycles, fn func())
}

// dispatchRecord is one observed dispatch: which logical event fired and at
// what cycle. Comparing the full sequences from both schedulers checks both
// time ordering and the (when, seq) tie-break.
type dispatchRecord struct {
	id   int
	when Cycles
}

// runDifferentialWorkload schedules a randomized, self-extending event
// workload on s and returns the dispatch sequence. All randomness comes
// from a fresh rand.Rand with the given seed, consumed in dispatch order —
// so two schedulers that dispatch identically consume the stream
// identically, and any ordering divergence immediately desynchronizes the
// recorded sequences.
//
// The workload deliberately produces heavy same-cycle ties (delays drawn
// from a tiny range), bursts of fan-out, and nested rescheduling — the
// patterns the machine, persist buffers and memory controllers generate.
func runDifferentialWorkload(s scheduler, seed int64, run func()) []dispatchRecord {
	rng := rand.New(rand.NewSource(seed))
	var got []dispatchRecord
	nextID := 0
	budget := 2000 // total events, bounds the self-extension

	var schedule func(delay Cycles)
	schedule = func(delay Cycles) {
		id := nextID
		nextID++
		s.After(delay, func() {
			got = append(got, dispatchRecord{id: id, when: s.Now()})
			// Fan out 0-3 children with tiny delays (0-4 cycles) so many
			// events collide on the same cycle and exercise the tie-break.
			for n := rng.Intn(4); n > 0 && budget > 0; n-- {
				budget--
				schedule(Cycles(rng.Intn(5)))
			}
		})
	}
	for i := 0; i < 50; i++ {
		budget--
		schedule(Cycles(rng.Intn(20)))
	}
	run()
	return got
}

// TestDifferentialDeterminism drives the shipped engine and the
// reference container/heap scheduler with identical randomized workloads
// across several seeds and requires identical dispatch sequences. This is
// the determinism pin for the scheduler rewrites: (when, seq) is a total
// order, so any queue that pops the global minimum must dispatch in
// exactly this sequence. Delays here stay far below the wheel size;
// TestWheelEdges covers the overflow heap and wrap-around.
func TestDifferentialDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			eng := newTestEngine()
			gotNew := runDifferentialWorkload(eng, seed, func() { eng.Run(0) })

			ref := &refEngine{}
			gotRef := runDifferentialWorkload(ref, seed, func() { ref.Run(0) })

			if len(gotNew) != len(gotRef) {
				t.Fatalf("dispatch counts differ: engine %d, reference %d", len(gotNew), len(gotRef))
			}
			for i := range gotNew {
				if gotNew[i] != gotRef[i] {
					t.Fatalf("dispatch %d diverges: engine {id %d, cycle %d}, reference {id %d, cycle %d}",
						i, gotNew[i].id, gotNew[i].when, gotRef[i].id, gotRef[i].when)
				}
			}
		})
	}
}

// TestDifferentialDeterminismStepped re-runs one differential seed
// dispatching the engine one Step at a time, so the Run and Step paths are
// proven to share dispatch semantics.
func TestDifferentialDeterminismStepped(t *testing.T) {
	eng := newTestEngine()
	gotNew := runDifferentialWorkload(eng, 7, func() {
		for eng.Step() {
		}
	})
	ref := &refEngine{}
	gotRef := runDifferentialWorkload(ref, 7, func() { ref.Run(0) })
	if len(gotNew) != len(gotRef) {
		t.Fatalf("dispatch counts differ: engine %d, reference %d", len(gotNew), len(gotRef))
	}
	for i := range gotNew {
		if gotNew[i] != gotRef[i] {
			t.Fatalf("dispatch %d diverges under Step: engine %+v, reference %+v", i, gotNew[i], gotRef[i])
		}
	}
}
