package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"asap/internal/machine"
	"asap/internal/stats"
)

const testHash = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"

// testEnvelope returns an intact envelope for testSpec, filed under its
// hash; timing varies the bytes without changing the entry's identity.
func testEnvelope(t *testing.T, timing *TimingJSON) (hash string, body []byte) {
	t.Helper()
	spec, canon := testSpec(t)
	hash = spec.MustHash()
	body, err := encodeEnvelope(hash, canon, machine.Result{ModelName: spec.Model, Stats: stats.New()}, timing)
	if err != nil {
		t.Fatal(err)
	}
	return hash, body
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, body := testEnvelope(t, nil)
	if _, ok, err := st.Get(hash); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v, want miss", ok, err)
	}
	if err := st.Put(hash, body); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(hash)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("Get = %q, want %q", got, body)
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v, want 1", n, err)
	}
}

func TestStorePutExistingIsNoOp(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hash, first := testEnvelope(t, &TimingJSON{SimulateNS: 1})
	_, second := testEnvelope(t, &TimingJSON{SimulateNS: 2})
	if err := st.Put(hash, first); err != nil {
		t.Fatal(err)
	}
	// A second Put must not clobber the entry: first write wins.
	if err := st.Put(hash, second); err != nil {
		t.Fatal(err)
	}
	got, _, err := st.Get(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, first) {
		t.Fatalf("second Put overwrote entry: got %q", got)
	}
}

func TestStoreRejectsBadHashes(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{
		"",
		"short",
		strings.Repeat("g", 64),                // non-hex
		strings.ToUpper(testHash),              // wrong case
		"../../etc/passwd\x00" + testHash[:46], // traversal attempt
		testHash + "00",                        // too long
	} {
		if err := st.Put(h, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed hash", h)
		}
		if _, _, err := st.Get(h); err == nil {
			t.Errorf("Get(%q) accepted a malformed hash", h)
		}
	}
}

func TestStoreLenIgnoresTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	hash, body := testEnvelope(t, nil)
	if err := st.Put(hash, body); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed writer's leftover temp file.
	tmp := filepath.Join(dir, hash[:2], "."+hash+".tmp1234")
	if err := os.WriteFile(tmp, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v, want 1 (temp files must not count)", n, err)
	}
}

// damagedEntries are ways a stored envelope for hash can go bad on disk:
// a flipped byte in its embedded spec (the spec no longer hashes to the
// address), another run's intact envelope filed under hash, and a file
// cut short.
func damagedEntries(t *testing.T, hash string, good []byte) map[string][]byte {
	t.Helper()
	flipped := append([]byte(nil), good...)
	i := bytes.Index(flipped, []byte(`"Cores": 4`))
	if i < 0 {
		t.Fatal("envelope has no core count to flip")
	}
	flipped[i+len(`"Cores": `)] ^= 0x01 // 4 cores become 5
	spec, _ := testSpec(t)
	spec.Params.Seed++
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	other, err := encodeEnvelope(spec.MustHash(), canon, machine.Result{ModelName: spec.Model, Stats: stats.New()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"flipped byte": flipped,
		"wrong hash":   other,
		"truncated":    good[:len(good)/2],
	}
}

// TestStoreRejectsDamagedEntries: a damaged entry is a miss, never served,
// and the next Put replaces it with the intact bytes, which then hit
// byte-identically.
func TestStoreRejectsDamagedEntries(t *testing.T) {
	hash, good := testEnvelope(t, nil)
	for name, bad := range damagedEntries(t, hash, good) {
		t.Run(name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := st.path(hash)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if body, ok, err := st.Get(hash); err != nil || ok {
				t.Fatalf("Get of a damaged entry = ok=%v err=%v body %q, want a miss", ok, err, body)
			}
			if err := st.Put(hash, good); err != nil {
				t.Fatal(err)
			}
			got, ok, err := st.Get(hash)
			if err != nil || !ok || !bytes.Equal(got, good) {
				t.Fatalf("Get after re-Put = ok=%v err=%v, identical=%v", ok, err, bytes.Equal(got, good))
			}
		})
	}
}

// TestServerRecomputesDamagedEntry drives the same through asapd: after
// the stored envelope is damaged, GET finds no run and a submit misses and
// simulates again, serving the original result; the repaired entry then
// hits with exactly the recomputed bytes.
func TestServerRecomputesDamagedEntry(t *testing.T) {
	spec, canon := testSpec(t)
	hash := spec.MustHash()
	dir := t.TempDir()
	s, ts := newTestServer(t, dir)
	resp, want := post(t, ts.URL+"/v1/runs", canon)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, want)
	}
	path := s.store.path(hash)
	for name, bad := range damagedEntries(t, hash, want) {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if resp, body := get(t, ts.URL+"/v1/runs/"+hash); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: GET of a damaged entry: status %d: %s", name, resp.StatusCode, body)
		}
		var bodies [][]byte
		for _, disp := range []string{"miss", "hit"} {
			resp, body := post(t, ts.URL+"/v1/runs", canon)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Asap-Cache") != disp {
				t.Fatalf("%s: submit: status %d cache %q, want 200 %s", name, resp.StatusCode, resp.Header.Get("X-Asap-Cache"), disp)
			}
			bodies = append(bodies, body)
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Fatalf("%s: the repaired entry's hit differs from the recomputed bytes", name)
		}
		var was, now Envelope
		if json.Unmarshal(want, &was) != nil || json.Unmarshal(bodies[0], &now) != nil || !reflect.DeepEqual(was.Result, now.Result) {
			t.Fatalf("%s: recomputed result differs from the original run", name)
		}
	}
}
