package crash

import (
	"errors"
	"strings"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/pmds"
)

// uncheckedCCEH runs a small single-thread CCEH heap on a ledger-free
// machine and returns both.
func uncheckedCCEH(t *testing.T) (*machine.Machine, *pmds.Heap) {
	t.Helper()
	h := pmds.NewHeap(1<<20, 1)
	h.CaptureImages()
	table := pmds.NewCCEH(h, 2, 8)
	for k := uint64(1); k <= 32; k++ {
		table.Insert(k, k*7)
	}
	m, err := machine.NewUnchecked(config.Default(), model.NameASAPRP, h.Trace("unchecked"))
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	return m, h
}

// TestCheckRefusesUncheckedMachine: a machine without a ledger has no
// ground truth, so Check fails naming the missing ledger instead of
// dereferencing it.
func TestCheckRefusesUncheckedMachine(t *testing.T) {
	m, _ := uncheckedCCEH(t)
	rep := Check(m)
	if rep.OK || len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "no crash ledger") {
		t.Fatalf("Check on a ledger-free machine = %+v, want one problem naming the missing ledger", rep)
	}
}

// TestRebuildImageRefusesUncheckedMachine: RebuildImage maps surviving
// tokens through the ledger's origins; without one it errors.
func TestRebuildImageRefusesUncheckedMachine(t *testing.T) {
	m, h := uncheckedCCEH(t)
	img, err := RebuildImage(m, h, 1<<20)
	if !errors.Is(err, machine.ErrNoLedger) || img != nil {
		t.Fatalf("RebuildImage on a ledger-free machine = %d bytes, %v; want an error naming the missing ledger", len(img), err)
	}
}
