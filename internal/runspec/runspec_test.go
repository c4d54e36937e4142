package runspec

import (
	"bytes"
	"strings"
	"testing"

	"asap/internal/config"
	"asap/internal/workload"
)

// defaultSpec is the reference spec of the golden-hash test: the Figure 8
// headline cell (cceh under asap_rp at the Table II configuration).
func defaultSpec() RunSpec {
	return New("cceh", "asap_rp", workload.Default(), config.Default())
}

// goldenHash pins the content address of defaultSpec. If this test fails
// you changed the canonical form — a field was added, removed or renamed
// in RunSpec, workload.Params or config.Config, or the canonical encoder
// changed. That invalidates every existing store entry: bump Schema,
// regenerate this constant (the failure message prints the new value),
// and mention the bump in the commit.
const goldenHash = "01bf3605d70c24d10c52896db345a228e1d24de47d2b10f6afac13319bd14e13"

func TestGoldenHash(t *testing.T) {
	h, err := defaultSpec().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != goldenHash {
		t.Fatalf("canonical hash of the default spec changed:\n got  %s\n want %s\nIf the spec schema really changed, bump runspec.Schema and update goldenHash.", h, goldenHash)
	}
}

// TestHashIndependentOfFieldOrderAndWhitespace: the same spec serialized
// with shuffled key order and arbitrary whitespace parses to the same
// content address as the struct-built spec.
func TestHashIndependentOfFieldOrderAndWhitespace(t *testing.T) {
	want := defaultSpec().MustHash()
	canon, err := defaultSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}

	// Hand-written variant: top-level keys shuffled, nested keys shuffled,
	// whitespace everywhere, config elided (defaults fill it). Field
	// values mirror workload.Default().
	variant := `{
		"model":    "asap_rp",
		"params": { "Seed": 1, "Threads": 4, "OpsPerThread": 600,
			    "ValueSize": 64, "KeyRange": 4096, "Strands": false },
		"workload": "cceh",
		"schema": 1
	}`
	s1, err := Parse([]byte(variant))
	if err != nil {
		t.Fatal(err)
	}
	if got := s1.MustHash(); got != want {
		t.Fatalf("shuffled/whitespaced spec hashed %s, struct spec %s", got, want)
	}

	// And the canonical bytes themselves are a fixpoint: parsing them and
	// re-canonicalizing reproduces them exactly.
	s2, err := Parse(canon)
	if err != nil {
		t.Fatal(err)
	}
	canon2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Fatalf("canonical form is not a fixpoint:\n%s\nvs\n%s", canon, canon2)
	}
}

// TestSchemaParticipatesInHash: bumping the schema version changes the
// hash even when every other field is identical, so a schema bump
// orphans old store entries instead of misreading them.
func TestSchemaParticipatesInHash(t *testing.T) {
	s := defaultSpec()
	bumped := s
	bumped.Schema = Schema + 1
	if s.MustHash() == bumped.MustHash() {
		t.Fatal("schema version does not participate in the hash")
	}
	// Parse refuses foreign schema versions outright.
	if _, err := Parse([]byte(`{"schema": 99, "workload": "cceh", "model": "asap_rp",
		"params": {"Threads": 1, "OpsPerThread": 1}}`)); err == nil ||
		!strings.Contains(err.Error(), "unsupported schema") {
		t.Fatalf("err = %v, want unsupported-schema error", err)
	}
}

// TestNormalization: elided defaults (missing config, zero KeyRange and
// ValueSize, missing schema, Threads above the default core count) are
// filled in by Parse, so minimal and fully spelled-out requests share
// one content address.
func TestNormalization(t *testing.T) {
	minimal := []byte(`{"workload": "cceh", "model": "asap_rp",
		"params": {"Threads": 8, "OpsPerThread": 100}}`)
	s, err := Parse(minimal)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schema != Schema {
		t.Fatalf("Schema = %d, want %d", s.Schema, Schema)
	}
	if s.Params.KeyRange != 1024 || s.Params.ValueSize != 8 {
		t.Fatalf("generator defaults not filled: %+v", s.Params)
	}
	if s.Config.Cores != 8 {
		t.Fatalf("Cores = %d, want raised to 8 threads", s.Config.Cores)
	}

	p := workload.Params{Threads: 8, OpsPerThread: 100, KeyRange: 1024, ValueSize: 8}
	cfg := config.Default()
	cfg.Cores = 8
	if want := New("cceh", "asap_rp", p, cfg).MustHash(); s.MustHash() != want {
		t.Fatalf("minimal spec hashed %s, explicit equivalent %s", s.MustHash(), want)
	}
}

// shardsSpec is the golden spec as a pre-existing asapd client may still
// send it, asking for the removed sharded engine.
const shardsSpec = `{"workload": "cceh", "model": "asap_rp", "shards": 2,
	"params": {"Seed": 1, "Threads": 4, "OpsPerThread": 600, "ValueSize": 64, "KeyRange": 4096}}`

// FuzzParse: Parse takes outside bytes (asapd request bodies), so it must
// never panic, and every spec it accepts must be a fixpoint — Normalize is
// idempotent and Canonical → Parse → Hash reproduces the content address.
// The seed corpus runs under plain `go test`; explore further with
// `go test -fuzz FuzzParse ./internal/runspec`.
func FuzzParse(f *testing.F) {
	canon, err := defaultSpec().Canonical()
	if err != nil {
		f.Fatal(err)
	}
	// shards:N hashes like serial: the field still parses, and the spec
	// lands on the serial spec's content address.
	if s, err := Parse([]byte(shardsSpec)); err != nil || s.MustHash() != goldenHash {
		f.Fatalf("shards spec: err = %v, hash = %s, want %s", err, s.MustHash(), goldenHash)
	}
	for _, seed := range []string{
		string(canon),
		shardsSpec,
		`{"workload": "cceh", "model": "asap_rp", "shards": -1, "params": {"Threads": 8, "OpsPerThread": 100}}`,
		`{"schema": 1, "workload": "bandwidth", "model": "hops_ep", "params": {"Threads": 1, "OpsPerThread": 1}}`,
		`{"workload": "cceh", "model": "asap_rp", "params": {"Threads": 1, "OpsPerThread": 1}, "config": {"Cores": 0}}`,
		`{"workload": `,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		n := s
		n.Normalize()
		if n != s {
			t.Fatalf("Normalize not idempotent:\n%+v\nvs\n%+v", s, n)
		}
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(c), "shards") {
			t.Fatalf("canonical form mentions shards: %s", c)
		}
		back, err := Parse(c)
		if err != nil {
			t.Fatalf("canonical form of an accepted spec rejected: %v\n%s", err, c)
		}
		if got := back.MustHash(); got != h {
			t.Fatalf("Canonical → Parse → Hash = %s, want %s", got, h)
		}
		sharded := s
		sharded.Shards = 2
		sharded.Normalize()
		if got := sharded.MustHash(); got != h {
			t.Fatalf("shards:2 hashed %s, serial %s", got, h)
		}
	})
}

// TestParseRejects: unknown fields (typos must not select defaults
// silently), malformed JSON, and structurally unrunnable specs.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"unknown field", `{"workload": "cceh", "modle": "asap_rp"}`, "unknown field"},
		{"malformed", `{"workload": `, "parse"},
		{"missing workload", `{"model": "asap_rp", "params": {"Threads": 1, "OpsPerThread": 1}}`, "missing workload"},
		{"missing model", `{"workload": "cceh", "params": {"Threads": 1, "OpsPerThread": 1}}`, "missing model"},
		{"zero threads", `{"workload": "cceh", "model": "asap_rp", "params": {"OpsPerThread": 1}}`, "Threads"},
		{"zero ops", `{"workload": "cceh", "model": "asap_rp", "params": {"Threads": 1}}`, "OpsPerThread"},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateBadConfig: an internally inconsistent machine configuration
// is an error (not a panic — config.Validate's contract is adapted).
func TestValidateBadConfig(t *testing.T) {
	s := defaultSpec()
	s.Config.InterleaveBytes = 100 // not a multiple of the line size
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "InterleaveBytes") {
		t.Fatalf("err = %v, want InterleaveBytes complaint", err)
	}
}

// TestCanonicalShape: the canonical bytes are compact JSON with sorted
// keys — no spaces, schema before workload only if sorted order says so.
func TestCanonicalShape(t *testing.T) {
	c, err := defaultSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s := string(c)
	if strings.ContainsAny(s, " \n\t") {
		t.Fatalf("canonical form contains whitespace: %s", s)
	}
	// Top-level keys in sorted order.
	order := []string{`"config"`, `"model"`, `"params"`, `"schema"`, `"workload"`}
	last := -1
	for _, k := range order {
		i := strings.Index(s, k)
		if i < 0 {
			t.Fatalf("canonical form missing %s: %s", k, s)
		}
		if i < last {
			t.Fatalf("canonical keys out of sorted order at %s: %s", k, s)
		}
		last = i
	}
}

// TestValidHash: the content-address format check used by store paths.
func TestValidHash(t *testing.T) {
	good := defaultSpec().MustHash()
	if !ValidHash(good) {
		t.Fatalf("real hash %s rejected", good)
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("g", HashLen), strings.ToUpper(good),
		"../" + good[3:], good + "ff",
	} {
		if ValidHash(bad) {
			t.Errorf("ValidHash(%q) = true, want false", bad)
		}
	}
}

// TestString: the compact run name used in errors and logs.
func TestString(t *testing.T) {
	if got := defaultSpec().String(); got != "cceh/asap_rp/4t" {
		t.Fatalf("String() = %q", got)
	}
}
