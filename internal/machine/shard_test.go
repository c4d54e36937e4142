package machine

import (
	"encoding/json"
	"strconv"
	"testing"

	"asap/internal/config"
	"asap/internal/model"
	"asap/internal/runspec"
	"asap/internal/stats"
	"asap/internal/workload"
)

// The simulator once had an intra-run sharded engine, and RunSpecs still
// carry a "shards" field so that clients written against it keep parsing.
// Every run is serial now. The tests below hold that contract end to end:
// a spec that asks for N shards normalizes to the serial spec, hashes to
// its content address, and drives a run whose results match the serial
// run exactly — on freshly built machines running side by side, so they
// also catch state shared between machines.

// diffParams keeps the differential matrix affordable: every workload ×
// model × shard-count combination runs, so each single run is small.
func diffParams() workload.Params {
	return workload.Params{Threads: 4, OpsPerThread: 80, KeyRange: 1024, ValueSize: 32, Seed: 7}
}

// shardedSpec builds the spec for one workload × model pair as a client
// would send it with "shards": shards, and parses it the way asapd does.
// shards == 0 is the serial spec.
func shardedSpec(t *testing.T, wl, mdl string, shards int) runspec.RunSpec {
	t.Helper()
	s := runspec.New(wl, mdl, diffParams(), config.Config{})
	s.Shards = shards
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := runspec.Parse(data)
	if err != nil {
		t.Fatalf("%s/%s shards=%d: parse %s: %v", wl, mdl, shards, data, err)
	}
	if parsed.Shards != 0 {
		t.Fatalf("%s/%s: Parse kept shards=%d, want 0", wl, mdl, parsed.Shards)
	}
	return parsed
}

// runSpec builds a fresh machine for the spec, runs it to completion and
// returns the result.
func runSpec(t *testing.T, s runspec.RunSpec) Result {
	t.Helper()
	tr, err := workload.Generate(s.Workload, s.Params)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(s.Config, s.Model, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(500_000_000)
	if !m.allDone() {
		t.Fatalf("%s/%s did not finish (cycle %d, finished %d/%d)",
			s.Workload, s.Model, m.Eng.Now(), m.finished, len(m.cores))
	}
	return res
}

// runSharded runs one workload × model pair from a spec carrying the given
// shard count, after checking that the spec hashes like the serial one.
func runSharded(t *testing.T, wl, mdl string, shards int) Result {
	t.Helper()
	s := shardedSpec(t, wl, mdl, shards)
	if shards != 0 {
		want := shardedSpec(t, wl, mdl, 0).MustHash()
		if got := s.MustHash(); got != want {
			t.Fatalf("%s/%s shards=%d hashes to %s, serial spec to %s", wl, mdl, shards, got, want)
		}
	}
	return runSpec(t, s)
}

// counterSnapshot flattens a run's counters for comparison.
func counterSnapshot(st *stats.Set) map[string]uint64 {
	out := make(map[string]uint64)
	for _, cv := range st.CounterValues() {
		out[cv.Name] = cv.Value
	}
	return out
}

// distSnapshot flattens a run's sampled distributions for comparison.
func distSnapshot(st *stats.Set) map[string]stats.DistValue {
	out := make(map[string]stats.DistValue)
	for _, dv := range st.DistValues() {
		out[dv.Name] = dv
	}
	return out
}

// compareRuns asserts that two runs of one spec returned the same
// Result: same execution time and final clock, same per-core finish
// times, same media traffic and high-water marks, same counters, same
// distributions.
func compareRuns(t *testing.T, label string, want, got Result) {
	t.Helper()
	if want.Cycles != got.Cycles || want.End != got.End {
		t.Errorf("%s: cycles/end diverged: want %d/%d, got %d/%d", label, want.Cycles, want.End, got.Cycles, got.End)
	}
	if len(want.PerCore) != len(got.PerCore) {
		t.Fatalf("%s: core count diverged: want %d, got %d", label, len(want.PerCore), len(got.PerCore))
	}
	for i := range want.PerCore {
		if want.PerCore[i] != got.PerCore[i] {
			t.Errorf("%s: core %d finish diverged: want %d, got %d",
				label, i, want.PerCore[i], got.PerCore[i])
		}
	}
	if want.PMWrites != got.PMWrites || want.PMReads != got.PMReads {
		t.Errorf("%s: media traffic diverged: want %d/%d writes/reads, got %d/%d",
			label, want.PMWrites, want.PMReads, got.PMWrites, got.PMReads)
	}
	if want.RTMaxOcc != got.RTMaxOcc {
		t.Errorf("%s: RT max occupancy diverged: want %d, got %d", label, want.RTMaxOcc, got.RTMaxOcc)
	}
	if want.WPQMaxOcc != got.WPQMaxOcc {
		t.Errorf("%s: WPQ max occupancy diverged: want %d, got %d", label, want.WPQMaxOcc, got.WPQMaxOcc)
	}
	wc, gc := counterSnapshot(want.Stats), counterSnapshot(got.Stats)
	for name, v := range wc {
		if gv, ok := gc[name]; !ok || gv != v {
			t.Errorf("%s: counter %s diverged: want %d, got %d", label, name, v, gv)
		}
	}
	for name := range gc {
		if _, ok := wc[name]; !ok {
			t.Errorf("%s: counter %s touched only by the second run (%d)", label, name, gc[name])
		}
	}
	wd, gd := distSnapshot(want.Stats), distSnapshot(got.Stats)
	for name, v := range wd {
		if gv, ok := gd[name]; !ok || gv != v {
			t.Errorf("%s: dist %s diverged: want %+v, got %+v", label, name, v, gv)
		}
	}
	for name := range gd {
		if _, ok := wd[name]; !ok {
			t.Errorf("%s: dist %s sampled only by the second run", label, name)
		}
	}
}

// TestShardedSmoke pins one pair end to end before the full matrix runs.
func TestShardedSmoke(t *testing.T) {
	serial := runSharded(t, "cceh", model.NameASAPEP, 0)
	sharded := runSharded(t, "cceh", model.NameASAPEP, 4)
	compareRuns(t, "cceh/asap_ep/4", serial, sharded)
}

// TestShardedDifferential runs every workload × model pair from specs
// carrying 2, 4 and 8 shards and requires each to reproduce the serial
// run exactly — execution time, per-core finish times, media traffic,
// high-water marks, counters and sampled distributions.
func TestShardedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload × model × shards matrix")
	}
	for _, wl := range workload.Names() {
		for _, mdl := range model.ExtendedNames() {
			wl, mdl := wl, mdl
			t.Run(wl+"/"+mdl, func(t *testing.T) {
				t.Parallel()
				serial := runSharded(t, wl, mdl, 0)
				for _, shards := range []int{2, 4, 8} {
					sharded := runSharded(t, wl, mdl, shards)
					compareRuns(t, wl+"/"+mdl+"/"+strconv.Itoa(shards), serial, sharded)
				}
			})
		}
	}
}
