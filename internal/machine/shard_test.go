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

// compareRuns asserts that a run from a "shards" spec reproduced the
// serial result: same execution time, same per-core finish times, same
// media traffic and high-water marks, same counters, same distributions.
func compareRuns(t *testing.T, label string, serial, sharded Result) {
	t.Helper()
	if serial.Cycles != sharded.Cycles {
		t.Errorf("%s: cycles diverged: serial %d, sharded %d", label, serial.Cycles, sharded.Cycles)
	}
	if len(serial.PerCore) != len(sharded.PerCore) {
		t.Fatalf("%s: core count diverged: serial %d, sharded %d", label, len(serial.PerCore), len(sharded.PerCore))
	}
	for i := range serial.PerCore {
		if serial.PerCore[i] != sharded.PerCore[i] {
			t.Errorf("%s: core %d finish diverged: serial %d, sharded %d",
				label, i, serial.PerCore[i], sharded.PerCore[i])
		}
	}
	if serial.PMWrites != sharded.PMWrites || serial.PMReads != sharded.PMReads {
		t.Errorf("%s: media traffic diverged: serial %d/%d writes/reads, sharded %d/%d",
			label, serial.PMWrites, serial.PMReads, sharded.PMWrites, sharded.PMReads)
	}
	if serial.RTMaxOcc != sharded.RTMaxOcc {
		t.Errorf("%s: RT max occupancy diverged: serial %d, sharded %d", label, serial.RTMaxOcc, sharded.RTMaxOcc)
	}
	if serial.WPQMaxOcc != sharded.WPQMaxOcc {
		t.Errorf("%s: WPQ max occupancy diverged: serial %d, sharded %d", label, serial.WPQMaxOcc, sharded.WPQMaxOcc)
	}
	sc, pc := counterSnapshot(serial.Stats), counterSnapshot(sharded.Stats)
	for name, v := range sc {
		if pv, ok := pc[name]; !ok || pv != v {
			t.Errorf("%s: counter %s diverged: serial %d, sharded %d", label, name, v, pv)
		}
	}
	for name := range pc {
		if _, ok := sc[name]; !ok {
			t.Errorf("%s: counter %s touched only by the sharded run (%d)", label, name, pc[name])
		}
	}
	sd, pd := distSnapshot(serial.Stats), distSnapshot(sharded.Stats)
	for name, v := range sd {
		if pv, ok := pd[name]; !ok || pv != v {
			t.Errorf("%s: dist %s diverged: serial %+v, sharded %+v", label, name, v, pv)
		}
	}
	for name := range pd {
		if _, ok := sd[name]; !ok {
			t.Errorf("%s: dist %s sampled only by the sharded run", label, name)
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
