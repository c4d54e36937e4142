package machine

import (
	"testing"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/workload"
)

// TestLedgerIsObservationOnly: the crash ledger only watches a run. A
// machine built by NewUnchecked must return exactly the Result of one
// built by New — for every model, on a hash table, a tree and a WHISPER
// application — and the depsRecorded counter that Figure 2 reads must
// count exactly the dependency edges the ledger records.
func TestLedgerIsObservationOnly(t *testing.T) {
	for _, wl := range []string{"cceh", "p_art", "echo"} {
		tr, err := workload.Generate(wl, diffParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, mdl := range model.ExtendedNames() {
			label := wl + "/" + mdl
			checked, err := New(config.Default(), mdl, tr)
			if err != nil {
				t.Fatal(err)
			}
			unchecked, err := NewUnchecked(config.Default(), mdl, tr)
			if err != nil {
				t.Fatal(err)
			}
			if unchecked.Ledger != nil {
				t.Fatalf("%s: NewUnchecked built a ledger", label)
			}
			want, got := checked.Run(0), unchecked.Run(0)
			if !checked.allDone() || !unchecked.allDone() {
				t.Fatalf("%s did not finish", label)
			}
			compareRuns(t, label, want, got)
			if deps, n := want.Stats.Get("depsRecorded"), checked.Ledger.NumDeps(); deps != n {
				t.Errorf("%s: depsRecorded = %d, ledger recorded %d edges", label, deps, n)
			}
		}
	}
}
