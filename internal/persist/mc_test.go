package persist

import (
	"testing"
	"unsafe"

	"asap/internal/config"
	"asap/internal/mem"
	"asap/internal/sim"
	"asap/internal/stats"
)

func newTestMC(spec bool) (*MC, *sim.Engine) {
	eng := sim.NewEngine()
	cfg := config.Default()
	return NewMC(0, eng, cfg, spec, stats.New()), eng
}

// replyFunc adapts a test closure to FlushReplier.
type replyFunc func(FlushResult)

func (f replyFunc) FlushReply(_ uint64, res FlushResult) { f(res) }

// ackFunc adapts a test closure to CommitAcker.
type ackFunc func()

func (f ackFunc) CommitAck(EpochID) { f() }

// receive hands pkt to mc with no PB→MC latency; fn gets the answer.
func receive(mc *MC, pkt FlushPacket, fn func(FlushResult)) { mc.ReceiveOp(pkt, replyFunc(fn), 0) }

// commitNow queues a commit of epoch e with no message latency (SendCommit
// adds MsgLat); fn runs on its ACK.
func commitNow(mc *MC, e EpochID, fn func()) {
	mc.queue.Push(mcJob{pkt: FlushPacket{Epoch: e}, to: ackFunc(fn), commit: true})
	mc.serve()
}

func sendFlush(t *testing.T, mc *MC, eng *sim.Engine, pkt FlushPacket) FlushResult {
	t.Helper()
	var got FlushResult = -1
	receive(mc, pkt, func(r FlushResult) { got = r })
	eng.Run(0)
	if got == -1 {
		t.Fatal("no reply from controller")
	}
	return got
}

func TestMCSafeFlushPersists(t *testing.T) {
	mc, eng := newTestMC(true)
	if r := sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 42, Epoch: e(0, 1)}); r != FlushAck {
		t.Fatalf("got %v", r)
	}
	if mc.NVM.Peek(5) != 42 {
		t.Fatal("safe flush did not reach media")
	}
	if !mc.Idle() {
		t.Fatal("controller should be idle")
	}
}

func TestMCEarlyFlushCreatesUndo(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 1, Epoch: e(0, 1)})              // safe: memory=1
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 2, Epoch: e(0, 2), Early: true}) // speculative
	if mc.NVM.Peek(5) != 2 {
		t.Fatal("speculative update missing")
	}
	u, ok := mc.RT.Undo(5)
	if !ok || u.Safe != 1 || u.Creator != e(0, 2) {
		t.Fatalf("undo wrong: %+v", u)
	}
	// Crash now: memory must roll back to 1.
	mc.CrashFlush()
	if mc.NVM.Peek(5) != 1 {
		t.Fatalf("crash rollback failed: %d", mc.NVM.Peek(5))
	}
}

func TestMCSafeFlushWithUndoSuppressed(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 3, Epoch: e(1, 1), Early: true})
	// A late safe flush (older value) must not clobber the newer
	// speculative value; it becomes the recorded safe state.
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 1, Epoch: e(0, 1)})
	if mc.NVM.Peek(5) != 3 {
		t.Fatal("newer speculative value clobbered")
	}
	if u, _ := mc.RT.Undo(5); u.Safe != 1 {
		t.Fatal("safe value not recorded")
	}
	if mc.Stats().Get("mcWritesSuppressed") != 1 {
		t.Fatal("suppression not counted")
	}
}

func TestMCCommitProcessesDelays(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 3, Epoch: e(1, 1), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 2, Epoch: e(2, 1), Early: true}) // delayed

	// Commit the delaying epoch first: delay -> undo safe value.
	done := false
	commitNow(mc, e(2, 1), func() { done = true })
	eng.Run(0)
	if !done {
		t.Fatal("commit not acknowledged")
	}
	if u, _ := mc.RT.Undo(5); u.Safe != 2 {
		t.Fatal("delay did not update the undo record")
	}
	// Commit the undo creator: record deleted, memory keeps 3.
	commitNow(mc, e(1, 1), func() {})
	eng.Run(0)
	if _, ok := mc.RT.Undo(5); ok {
		t.Fatal("undo should be gone")
	}
	if mc.NVM.Peek(5) != 3 {
		t.Fatal("memory lost the newest value")
	}
}

func TestMCDelayWithoutUndoPersistsOnCommit(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 3, Epoch: e(1, 1), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 4, Epoch: e(2, 1), Early: true}) // delayed
	commitNow(mc, e(1, 1), func() {})                                                  // undo deleted
	eng.Run(0)
	commitNow(mc, e(2, 1), func() {}) // delay now persists to media
	eng.Run(0)
	if mc.NVM.Peek(5) != 4 {
		t.Fatalf("delayed write lost: %d", mc.NVM.Peek(5))
	}
}

func TestMCNackWhenRTFull(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.RTEntries = 2
	mc := NewMC(0, eng, cfg, true, stats.New())
	sendFlush(t, mc, eng, FlushPacket{Line: 1, Token: 1, Epoch: e(0, 2), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 2, Token: 2, Epoch: e(0, 3), Early: true})
	if r := sendFlush(t, mc, eng, FlushPacket{Line: 3, Token: 3, Epoch: e(0, 4), Early: true}); r != FlushNack {
		t.Fatalf("expected NACK, got %v", r)
	}
	if !mc.Bloom.MaybeContains(3) {
		t.Fatal("NACKed line not in the Bloom filter")
	}
	// Safe flushes never allocate RT space and must still succeed.
	if r := sendFlush(t, mc, eng, FlushPacket{Line: 3, Token: 3, Epoch: e(0, 4)}); r != FlushAck {
		t.Fatalf("safe flush NACKed: %v", r)
	}
}

func TestMCPlainControllerIgnoresSpeculation(t *testing.T) {
	mc, eng := newTestMC(false)
	if mc.RT != nil || mc.Bloom != nil {
		t.Fatal("plain controller should have no RT")
	}
	// Even packets marked early are plain writes on a non-speculative MC.
	sendFlush(t, mc, eng, FlushPacket{Line: 9, Token: 7, Epoch: e(0, 1), Early: true})
	if mc.NVM.Peek(9) != 7 {
		t.Fatal("write lost")
	}
}

func TestMCWPQBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.WPQEntries = 2
	mc := NewMC(0, eng, cfg, false, stats.New())
	acks := 0
	for i := 0; i < 8; i++ {
		receive(mc, FlushPacket{Line: mem.Line(100 + i), Token: mem.Token(i + 1), Epoch: e(0, 1)},
			func(FlushResult) { acks++ })
	}
	eng.Run(0)
	if acks != 8 {
		t.Fatalf("only %d/8 flushes acknowledged", acks)
	}
	if mc.Stats().Get("mcWpqFullStalls") == 0 {
		t.Fatal("expected WPQ backpressure with a 2-entry queue")
	}
	for i := 0; i < 8; i++ {
		if mc.NVM.Peek(mem.Line(100+i)) != mem.Token(i+1) {
			t.Fatalf("write %d lost", i)
		}
	}
}

func TestMCUndoReadUsesWPQAndXPBuffer(t *testing.T) {
	mc, eng := newTestMC(true)
	// Prime: a safe write parks in the WPQ briefly; an immediate early
	// write to the same line must read the pending value, not media.
	receive(mc, FlushPacket{Line: 4, Token: 10, Epoch: e(0, 1)}, func(FlushResult) {})
	receive(mc, FlushPacket{Line: 4, Token: 11, Epoch: e(0, 2), Early: true}, func(FlushResult) {})
	eng.Run(0)
	if u, ok := mc.RT.Undo(4); !ok || u.Safe != 10 {
		t.Fatalf("undo should hold the WPQ value 10: %+v", u)
	}
	if mc.Stats().Get("mcUndoMediaReads") != 0 {
		t.Fatal("undo read should have hit the WPQ, not media")
	}
}

func TestMCCrashDiscardsDelays(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 3, Epoch: e(1, 1), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 5, Token: 9, Epoch: e(2, 1), Early: true}) // delayed
	mc.CrashFlush()
	// Undo restores 0 (pre-speculation); the delayed 9 must be gone.
	if got := mc.NVM.Peek(5); got != 0 {
		t.Fatalf("post-crash value %d, want 0", got)
	}
	if mc.RT.Occupancy() != 0 {
		t.Fatal("RT not reset after crash")
	}
}

// TestMCSameEpochSafeAfterEarly is a regression test: an epoch's early flush
// creates an undo record; a *later* write of the same epoch issues safe
// (the epoch became safe mid-flight). The newer value must reach memory, not
// be stashed in the undo record (which is deleted at commit). Found by the
// crash-campaign checker.
func TestMCSameEpochSafeAfterEarly(t *testing.T) {
	mc, eng := newTestMC(true)
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 100, Epoch: e(0, 5), Early: true})
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 101, Epoch: e(0, 5)}) // safe, same epoch
	commitNow(mc, e(0, 5), func() {})
	eng.Run(0)
	if got := mc.NVM.Peek(8); got != 101 {
		t.Fatalf("memory = %d, want the epoch's newest write 101", got)
	}
}

// TestMCStaleDelayReplay is a regression test for the delay-replay hazard:
// epoch F's write is delayed behind E's undo record; E commits; a *newer*
// write of F then speculatively updates memory. F's commit must not replay
// the stale delayed value over the newer one. Found by the crash-campaign
// checker on FAST&FAIR's shift-heavy inserts.
func TestMCStaleDelayReplay(t *testing.T) {
	mc, eng := newTestMC(true)
	E, F := e(0, 1), e(0, 2)
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 10, Epoch: E, Early: true}) // undo(E), mem=10
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 20, Epoch: F, Early: true}) // delayed behind undo(E)
	commitNow(mc, E, func() {})
	eng.Run(0)
	// F writes the line again: must coalesce into F's delay record, not
	// start a new speculative chain that the stale delay would clobber.
	sendFlush(t, mc, eng, FlushPacket{Line: 8, Token: 30, Epoch: F, Early: true})
	commitNow(mc, F, func() {})
	eng.Run(0)
	if got := mc.NVM.Peek(8); got != 30 {
		t.Fatalf("memory = %d, want F's newest write 30", got)
	}
	if mc.RT.Occupancy() != 0 {
		t.Fatal("records left after both commits")
	}
}

type replyLog []FlushResult

func (l *replyLog) FlushReply(_ uint64, res FlushResult) { *l = append(*l, res) }

// TestMCSendFlushArrival pins the PB→MC trip: a sent flush reaches the
// controller FlushLat cycles later, and only a NACK-retried one lifts the
// line's Bloom reservation, at that arrival (§V-F).
func TestMCSendFlushArrival(t *testing.T) {
	for _, retried := range []bool{false, true} {
		mc, eng := newTestMC(true)
		var replies replyLog
		mc.Bloom.Add(7)
		mc.SendFlushOp(FlushPacket{Line: 7, Token: 1, Epoch: e(0, 1)}, &replies, 0, retried)
		eng.RunUntil(mc.cfg.FlushLat - 1)
		if mc.QueueLen() != 0 || mc.serving || !mc.Bloom.MaybeContains(7) {
			t.Fatalf("retried=%v: flush arrived before FlushLat", retried)
		}
		eng.Run(0)
		if len(replies) != 1 || replies[0] != FlushAck {
			t.Fatalf("retried=%v: replies %v, want one ACK", retried, replies)
		}
		if got := mc.Bloom.MaybeContains(7); got == retried {
			t.Fatalf("retried=%v: Bloom still reserves the line = %v", retried, got)
		}
	}
}

// TestMCJobSize pins the controller job's footprint. Every flush and commit
// is copied through the in-flight and service FIFOs by value; at 72 bytes
// the copy is a few plain moves rather than a runtime block copy (the job
// was 112 bytes with separate commit fields and two reply interfaces).
func TestMCJobSize(t *testing.T) {
	if n := unsafe.Sizeof(mcJob{}); n != 72 {
		t.Fatalf("mcJob is %d bytes, want 72", n)
	}
}
