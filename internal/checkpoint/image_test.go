package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/rng"
	"asap/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden checkpoint images")

// newAt builds a machine for (model, case) and advances it to cycle `at`.
func newAt(t *testing.T, mn string, c diffCase, at uint64) *machine.Machine {
	t.Helper()
	tr, err := workload.Generate(c.wl, c.p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m, err := machine.New(config.Default(), mn, tr)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if at > 0 {
		m.Advance(at)
	}
	return m
}

// TestImageRoundtrip is the cross-process half of the tentpole pin: for
// every model × a workload sample, a machine advanced to a randomized
// mid-run cycle, saved to a binary image, loaded back, and run to
// completion must reproduce the uninterrupted run byte-identically —
// Result, stats, and every controller's NVM image. A machine with an
// operation parked saves at the next quiescent cycle.
func TestImageRoundtrip(t *testing.T) {
	for _, mn := range model.ExtendedNames() {
		for _, c := range diffWorkloads() {
			t.Run(mn+"/"+c.wl, func(t *testing.T) {
				t.Parallel()
				oracle := newAt(t, mn, c, 0)
				resA := oracle.Run(0)
				want := summarize(oracle, resA)

				r := rng.New(uint64(len(mn))*31 + c.p.Seed*17)
				cut := 1 + r.Uint64n(resA.Cycles)
				m := newAt(t, mn, c, cut)
				img, at, err := SaveNextQuiescent(m, resA.Cycles)
				if err != nil {
					t.Fatalf("save at cycle %d: %v", cut, err)
				}
				if at < cut {
					t.Fatalf("saved at %d, before requested cycle %d", at, cut)
				}
				if gotCycle, err := ImageCycle(img); err != nil || gotCycle != at {
					t.Fatalf("ImageCycle = %d, %v; want %d", gotCycle, err, at)
				}

				// The machine Save mutated must itself still finish correctly.
				compare(t, "saver-continue", want, summarize(m, m.Run(0)))

				// Two independent loads, run to completion.
				for i := 0; i < 2; i++ {
					lm, err := Load(img)
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					if lm.Eng.Now() != at {
						t.Fatalf("loaded clock %d, want %d", lm.Eng.Now(), at)
					}
					compare(t, "load-continue", want, summarize(lm, lm.Run(0)))
				}
			})
		}
	}
}

// TestImageDeterministic pins that Save is a pure function of machine
// state: two machines advanced identically produce byte-identical images
// (map entries are sorted, ids are dense in traversal order, no addresses
// or timestamps leak into the encoding).
func TestImageDeterministic(t *testing.T) {
	c := diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 120, Seed: 7}}
	a, atA, err := SaveNextQuiescent(newAt(t, model.NameASAPEP, c, 500), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b, atB, err := SaveNextQuiescent(newAt(t, model.NameASAPEP, c, 500), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if atA != atB {
		t.Fatalf("quiescence search diverged: %d vs %d", atA, atB)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical machine states produced different images")
	}
}

// TestImageRejectsBadInput pins the acceptance requirement that corrupted,
// truncated, and wrong-version images error — never panic. Every prefix
// truncation and every single-byte corruption of a real image must be
// rejected (the digest covers the whole payload).
func TestImageRejectsBadInput(t *testing.T) {
	c := diffCase{wl: "echo", p: workload.Params{Threads: 2, OpsPerThread: 60, Seed: 5}}
	img, _, err := SaveNextQuiescent(newAt(t, model.NameASAPEP, c, 200), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(nil); err == nil {
		t.Fatal("Load(nil) succeeded")
	}
	if _, err := Load([]byte("ASAPCKP1")); err == nil {
		t.Fatal("magic-only image loaded")
	}
	if _, err := Load([]byte("NOTANIMG" + string(img[8:]))); err == nil {
		t.Fatal("wrong magic loaded")
	}
	// Wrong version: byte 8 is the uvarint version (1).
	bad := append([]byte(nil), img...)
	bad[8] = 99
	if _, err := Load(bad); err == nil {
		t.Fatal("wrong-version image loaded")
	}
	// Every truncation point.
	for n := 0; n < len(img); n += 1 + n/16 {
		if _, err := Load(img[:n]); err == nil {
			t.Fatalf("truncated image (%d/%d bytes) loaded", n, len(img))
		}
	}
	// Single-byte corruption at a spread of offsets.
	for off := 0; off < len(img); off += 1 + len(img)/512 {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x40
		if _, err := Load(bad); err == nil {
			t.Fatalf("corrupted image (byte %d flipped) loaded", off)
		}
	}
	// An image from a build with a different schema: flip one fingerprint
	// byte and re-seal the digest, so the integrity check passes and the
	// fingerprint check is what must refuse it.
	stale := append([]byte(nil), img...)
	payload := len(imageMagic) + 1 + sha256.Size // magic, version 1, digest
	stale[payload] ^= 0x01
	sum := sha256.Sum256(stale[payload:])
	copy(stale[payload-sha256.Size:], sum[:])
	if _, err := Load(stale); err == nil || !strings.Contains(err.Error(), "schema fingerprint mismatch") {
		t.Fatalf("stale-schema image: err = %v, want schema fingerprint mismatch", err)
	}
}

// TestImageRejectsUnquiescent pins the gating contract: a machine whose
// core is parked mid-operation holds a resume callback construction does
// not supply, so Save refuses it, and SaveNextQuiescent with no search
// window reports the same. A 2-entry persist buffer makes hops_rp park a
// store on a full buffer within the first few hundred cycles.
func TestImageRejectsUnquiescent(t *testing.T) {
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.PBEntries = 2
	build := func(at uint64) *machine.Machine {
		m, err := machine.New(cfg, model.NameHOPSRP, tr)
		if err != nil {
			t.Fatal(err)
		}
		m.Advance(at)
		return m
	}
	m := build(0)
	for i := uint64(1); i < 2000; i++ {
		m.Advance(i)
		_, err := Save(m)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrNotQuiescent) || !strings.Contains(err.Error(), ".store.done") {
			t.Fatalf("cycle %d: save error %v, want ErrNotQuiescent naming the parked store", i, err)
		}
		if _, _, err := SaveNextQuiescent(build(i), 0); !errors.Is(err, ErrNotQuiescent) {
			t.Fatalf("zero-window search: got %v, want ErrNotQuiescent", err)
		}
		return
	}
	t.Fatal("hops_rp with a 2-entry persist buffer never parked a store in 2000 cycles")
}

// goldenImagePath is the committed checkpoint image: asap_ep on the cceh
// workload, advanced to cycle 400, where SaveNextQuiescent starts its
// search; the image is captured at the first quiescent cycle after it,
// goldenImageCycle. TestGoldenImage loads it and reruns it.
func goldenImagePath() string {
	return filepath.Join("..", "..", "testdata", "golden", "checkpoint_asap_ep_cceh.ckpt")
}

const goldenImageCycle = 864

func goldenMachine(t *testing.T) *machine.Machine {
	t.Helper()
	return newAt(t, model.NameASAPEP,
		diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42}}, 400)
}

// TestGoldenImage pins the on-disk format: the committed image must load
// and finish identically to a fresh run, and a fresh Save of the same
// state must reproduce the committed bytes exactly. A schema or format
// change fails this test; regenerate with `go test ./internal/checkpoint
// -run TestGoldenImage -update` and review the diff deliberately — old
// images stop loading when the fingerprint moves.
func TestGoldenImage(t *testing.T) {
	img, at, err := SaveNextQuiescent(goldenMachine(t), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("golden image captured at cycle %d (%d bytes)", at, len(img))
	if at != goldenImageCycle {
		t.Fatalf("golden image captured at cycle %d, want %d: the quiescence search landed elsewhere, so the event stream changed", at, goldenImageCycle)
	}
	path := goldenImagePath()
	if *updateGolden {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(img))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden image (regenerate with -update): %v", err)
	}
	if !bytes.Equal(img, want) {
		t.Fatalf("checkpoint image format drifted from golden (%d bytes vs %d): regenerate with -update if intended", len(img), len(want))
	}

	lm, err := Load(want)
	if err != nil {
		t.Fatalf("golden image failed to load: %v", err)
	}
	oracle := newAt(t, model.NameASAPEP,
		diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42}}, 0)
	compare(t, "golden", summarize(oracle, oracle.Run(0)), summarize(lm, lm.Run(0)))
}
