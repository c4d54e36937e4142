// Package runspec defines the serializable, canonically-hashable
// specification of one simulation run: workload, persistence model,
// generator parameters and machine configuration.
//
// Every simulation in this repository is a pure function of its RunSpec
// (PR 2 proved parallel output byte-identical to serial for exactly this
// reason), which makes the spec a global cache key: two parties that
// agree on a RunSpec agree on the result. The canonical form makes that
// agreement mechanical — Canonical renders the spec as JSON with
// recursively sorted object keys and no insignificant whitespace, so the
// hash is independent of field order, formatting, and the Go struct
// declaration order, and Hash (SHA-256 of the canonical bytes) is the
// content address under which asapd's store, the harness cache and any
// future campaign runner file the result.
//
// The schema is versioned: Schema names the current version, Parse
// rejects specs from other versions, and because the version is part of
// the canonical bytes, bumping it changes every hash — old store entries
// are orphaned rather than silently misread. A golden-hash test pins the
// canonical form; accidental changes to Params or Config field sets fail
// loudly there.
package runspec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"asap/internal/config"
	"asap/internal/workload"
)

// Schema is the current RunSpec schema version. Bump it whenever the
// meaning of a spec changes (a field is added, removed, or reinterpreted
// in workload.Params or config.Config): the version participates in the
// canonical bytes, so a bump invalidates every previously computed hash
// instead of letting a stale store entry answer for a different run.
const Schema = 1

// RunSpec identifies one simulation run completely. It is a flat
// comparable value (usable directly as a map key — the harness engine's
// singleflight cache does) and round-trips through JSON.
type RunSpec struct {
	Schema   int             `json:"schema"`
	Workload string          `json:"workload"`
	Model    string          `json:"model"`
	Params   workload.Params `json:"params"`
	Config   config.Config   `json:"config"`

	// Shards is accepted and ignored, so clients written when the
	// simulator had a sharded engine still parse. Every run is serial:
	// Normalize folds any value to zero and omitempty keeps it out of the
	// canonical bytes, so a spec carrying "shards" hashes to the same
	// content address as the serial spec.
	Shards int `json:"shards,omitempty"`
}

// New builds a normalized RunSpec at the current schema version. A zero
// Config selects config.Default(), and the spec is normalized (see
// Normalize) so that equivalent requests hash identically.
func New(wl, mdl string, p workload.Params, cfg config.Config) RunSpec {
	s := RunSpec{Schema: Schema, Workload: wl, Model: mdl, Params: p, Config: cfg}
	s.Normalize()
	return s
}

// Normalize fills defaulted fields in place, mirroring what the
// simulator itself would do with the raw values: a zero Config becomes
// config.Default(), zero generator defaults are materialized
// (workload.Params.Normalized), and Cores is raised to Threads — the
// same adjustment the harness and asapsim apply before building a
// machine. Hashes are computed over normalized specs, so requests that
// differ only in elided defaults share one content address.
func (s *RunSpec) Normalize() {
	if s.Schema == 0 {
		s.Schema = Schema
	}
	if s.Config == (config.Config{}) {
		s.Config = config.Default()
	}
	s.Params = s.Params.Normalized()
	if s.Params.Threads > s.Config.Cores {
		s.Config.Cores = s.Params.Threads
	}
	s.Shards = 0
}

// Validate reports whether the spec is structurally runnable: current
// schema, named workload and model, positive scale parameters, and an
// internally consistent machine configuration. Name resolution (does the
// workload exist?) is left to the consumer, which has the registries.
func (s RunSpec) Validate() error {
	switch {
	case s.Schema != Schema:
		return fmt.Errorf("runspec: unsupported schema version %d (current %d)", s.Schema, Schema)
	case s.Workload == "":
		return fmt.Errorf("runspec: missing workload")
	case s.Model == "":
		return fmt.Errorf("runspec: missing model")
	case s.Params.Threads <= 0:
		return fmt.Errorf("runspec: Params.Threads must be positive")
	case s.Params.OpsPerThread <= 0:
		return fmt.Errorf("runspec: Params.OpsPerThread must be positive")
	case s.Params.Threads > s.Config.Cores:
		return fmt.Errorf("runspec: %d threads exceed %d cores (normalize the spec)", s.Params.Threads, s.Config.Cores)
	}
	return validateConfig(s.Config)
}

// validateConfig adapts config.Validate's panic-on-inconsistency
// contract (built for hand-edited test configs) into an error, so a bad
// spec arriving over HTTP is a 400, not a crashed service.
func validateConfig(c config.Config) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runspec: %v", r)
		}
	}()
	c.Validate()
	return nil
}

// Parse decodes a RunSpec from JSON. Field order and whitespace are
// irrelevant; unknown fields are rejected (a typo must not silently
// select a default); a missing schema defaults to the current version,
// any other mismatch is an error. The result is normalized and
// validated, so Parse(b).Hash() is the content address the spec's
// result will be stored under.
func Parse(data []byte) (RunSpec, error) {
	var s RunSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("runspec: parse: %w", err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return RunSpec{}, err
	}
	return s, nil
}

// Canonical renders the spec as canonical JSON: recursively sorted
// object keys, no insignificant whitespace, integers verbatim. The
// canonical bytes — not the Go struct — are the unit of agreement:
// hash them, store them, diff them.
func (s RunSpec) Canonical() ([]byte, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber() // keep integer literals exact (uint64 seeds overflow float64)
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeCanonical serializes v with sorted object keys and no whitespace.
func writeCanonical(b *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			b.Write(kb)
			b.WriteByte(':')
			if err := writeCanonical(b, x[k]); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := writeCanonical(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(']')
	case json.Number:
		b.WriteString(string(x))
	case string:
		sb, err := json.Marshal(x)
		if err != nil {
			return err
		}
		b.Write(sb)
	case bool:
		if x {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case nil:
		b.WriteString("null")
	default:
		return fmt.Errorf("runspec: canonical: unexpected type %T", v)
	}
	return nil
}

// Hash returns the spec's content address: the lowercase-hex SHA-256 of
// its canonical bytes. Equal specs (after Normalize) hash equal on any
// machine, architecture, and Go version.
func (s RunSpec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// MustHash is Hash for specs built in-process (every field of a RunSpec
// marshals; failure indicates a corrupted program, not bad input).
func (s RunSpec) MustHash() string {
	h, err := s.Hash()
	if err != nil {
		panic(err)
	}
	return h
}

// HashLen is the length of a Hash string (hex SHA-256); consumers use
// it to reject malformed content addresses before touching the disk.
const HashLen = 2 * sha256.Size

// ValidHash reports whether h is a well-formed content address:
// lowercase hex of the right length. Store paths are derived from
// hashes, so this is also the path-traversal guard.
func ValidHash(h string) bool {
	if len(h) != HashLen {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// String names the run compactly for error messages and logs:
// workload/model/threads, the same shape the harness always used.
func (s RunSpec) String() string {
	return fmt.Sprintf("%s/%s/%dt", s.Workload, s.Model, s.Params.Threads)
}
