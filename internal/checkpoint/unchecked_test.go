package checkpoint

import (
	"errors"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/workload"
)

// uncheckedAt builds a ledger-free machine over a small cceh trace and
// advances it to cycle at.
func uncheckedAt(t *testing.T, at uint64) *machine.Machine {
	t.Helper()
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 60, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.NewUnchecked(config.Default(), model.NameASAPEP, tr)
	if err != nil {
		t.Fatal(err)
	}
	m.Advance(at)
	return m
}

// TestCaptureRefusesUncheckedMachine: forks exist to be crash-checked, and
// a ledger-free machine cannot be, so Capture errors naming the ledger.
func TestCaptureRefusesUncheckedMachine(t *testing.T) {
	cp, err := Capture(uncheckedAt(t, 400))
	if !errors.Is(err, machine.ErrNoLedger) || cp != nil {
		t.Fatalf("Capture on a ledger-free machine = %v, %v; want an error naming the missing ledger", cp, err)
	}
}

// TestSaveRefusesUncheckedMachine: Save pairs the machine with a pristine
// twin built by machine.New, which carries a ledger; a ledger-free machine
// is refused up front rather than failing inside the walk.
func TestSaveRefusesUncheckedMachine(t *testing.T) {
	img, err := Save(uncheckedAt(t, 0))
	if !errors.Is(err, machine.ErrNoLedger) || img != nil {
		t.Fatalf("Save on a ledger-free machine = %d bytes, %v; want an error naming the missing ledger", len(img), err)
	}
}
