package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"asap/internal/runspec"
)

// Store is the content-addressed on-disk result store: one JSON envelope
// per completed run, filed under the SHA-256 of the run's canonical spec
// (the repo-DB-with-local-store pattern — the simulator's determinism
// means a result computed anywhere answers the spec everywhere).
//
// Layout: <dir>/<hash[:2]>/<hash>.json. The two-character fan-out keeps
// directories small under millions of entries. Entries are immutable:
// writes go to a temp file in the same directory and rename into place,
// so concurrent writers race benignly (both bodies are byte-identical by
// determinism) and a crashed writer leaves only a temp file, never a
// torn entry. First write wins; Put of an existing intact hash is a no-op.
//
// Entries are checked on every read: an entry whose envelope names
// another hash, whose embedded spec does not re-hash to its address, or
// that does not decode at all (a flipped or truncated file) is a miss, so
// the run is recomputed and its Put replaces the bad file. A damaged
// entry is never served.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: store directory must be set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (st *Store) Dir() string { return st.dir }

// path maps a content address to its entry file. Callers must have
// validated the hash (runspec.ValidHash) — that check is also the
// path-traversal guard, since the hash becomes a path component.
func (st *Store) path(hash string) string {
	return filepath.Join(st.dir, hash[:2], hash+".json")
}

// Get returns the stored envelope for hash, or ok=false if absent or
// damaged.
func (st *Store) Get(hash string) (body []byte, ok bool, err error) {
	if !runspec.ValidHash(hash) {
		return nil, false, fmt.Errorf("server: store: malformed hash %q", hash)
	}
	b, err := os.ReadFile(st.path(hash))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("server: store: %w", err)
	}
	if !intact(hash, b) {
		return nil, false, nil
	}
	return b, true, nil
}

// intact reports whether body is an envelope filed under the right
// address: its hash field is hash, and its embedded spec re-hashes to it.
// The envelope embeds the canonical spec bytes indented, so compacting
// them restores exactly the bytes the address was computed from.
func intact(hash string, body []byte) bool {
	var env struct {
		Hash string          `json:"hash"`
		Spec json.RawMessage `json:"spec"`
	}
	if json.Unmarshal(body, &env) != nil || env.Hash != hash {
		return false
	}
	var canon bytes.Buffer
	return json.Compact(&canon, env.Spec) == nil && runspec.HashOf(canon.Bytes()) == hash
}

// Put files body under hash, atomically. An intact existing entry is left
// untouched: results are deterministic, so the bytes already there are
// the bytes being offered. A damaged one is replaced.
func (st *Store) Put(hash string, body []byte) error {
	if !runspec.ValidHash(hash) {
		return fmt.Errorf("server: store: malformed hash %q", hash)
	}
	if _, ok, err := st.Get(hash); err != nil || ok {
		return err // first write won already
	}
	final := st.path(hash)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(final), "."+hash+".tmp*")
	if err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	_, werr := tmp.Write(body)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: store: %w", werr)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: store: %w", err)
	}
	return nil
}

// Len counts stored entries (a walk — used by /v1/stats, not a hot path).
func (st *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(st.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") && !strings.Contains(filepath.Base(path), ".tmp") {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("server: store: %w", err)
	}
	return n, nil
}
