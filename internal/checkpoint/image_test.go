package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
// Result, stats, and every controller's NVM image. The image is saved at
// exactly the randomized cycle, whatever the cores are doing there.
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
				img, err := Save(m)
				if err != nil {
					t.Fatalf("save at cycle %d: %v", cut, err)
				}
				if gotCycle, err := ImageCycle(img); err != nil || gotCycle != cut {
					t.Fatalf("ImageCycle = %d, %v; want %d", gotCycle, err, cut)
				}

				// The machine Save mutated must itself still finish correctly.
				compare(t, "saver-continue", want, summarize(m, m.Run(0)))

				// Two independent loads, run to completion.
				for i := 0; i < 2; i++ {
					lm, err := Load(img)
					if err != nil {
						t.Fatalf("load: %v", err)
					}
					if lm.Eng.Now() != cut {
						t.Fatalf("loaded clock %d, want %d", lm.Eng.Now(), cut)
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
	a, err := Save(newAt(t, model.NameASAPEP, c, 500))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Save(newAt(t, model.NameASAPEP, c, 500))
	if err != nil {
		t.Fatal(err)
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
	img, err := Save(newAt(t, model.NameASAPEP, c, 200))
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

// TestImageSavesEveryCycle pins that Save needs no quiescent cycle: a
// parked operation is plain data the machine resumes, so every cycle
// saves. A 2-entry persist buffer makes hops_rp park a store on a full
// buffer early; Save must succeed at every cycle from 1 until that store
// is released (and at least 300 cycles in). Then one image per kind of
// parked operation must load and finish exactly like the uninterrupted
// run.
func TestImageSavesEveryCycle(t *testing.T) {
	c := diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 200, Seed: 3}}
	cfg := config.Default()
	cfg.PBEntries = 2
	m := newWith(t, cfg, model.NameHOPSRP, c)
	parkedSeen, released := false, false
	for i := uint64(1); i <= 300 || !released; i++ {
		if i > 2000 {
			t.Fatal("hops_rp with a 2-entry persist buffer never parked and released a store in 2000 cycles")
		}
		m.Advance(i)
		if _, err := Save(m); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		parked := len(parkedOps(m, "storeWaiter")) > 0
		parkedSeen = parkedSeen || parked
		released = released || (parkedSeen && !parked)
	}

	tight := func(f func(*config.Config)) config.Config {
		cfg := config.Default()
		if f != nil {
			f(&cfg)
		}
		return cfg
	}
	cases := []struct {
		name, model, kind string
		cfg               config.Config
		c                 diffCase
	}{
		{"store on a full persist buffer", model.NameHOPSRP, "storeWaiter", cfg, c},
		{"fence on a full epoch table", model.NameHOPSRP, "fenceWaiter",
			tight(func(c *config.Config) { c.ETEntries = 2 }), c},
		{"dfence mid-drain", model.NameASAPEP, "dfenceWaiter", tight(nil), c},
		{"lrp operation behind a blocked acquire", model.NameLRP, "lrpStall",
			tight(nil), diffCase{wl: "atlas_queue", p: workload.Params{Threads: 3, OpsPerThread: 80, Seed: 11}}},
		{"pmem_spec core held by recovery", model.NamePMEMSpec, "specCore", tight(nil), c},
	}
	for _, tc := range cases {
		t.Run(tc.model+"/"+tc.kind, func(t *testing.T) {
			t.Parallel()
			oracle := newWith(t, tc.cfg, tc.model, tc.c)
			resA := oracle.Run(0)
			m := newWith(t, tc.cfg, tc.model, tc.c)
			var at uint64
			for i := uint64(1); i <= resA.Cycles; i++ {
				m.Advance(i)
				if len(parkedOps(m, tc.kind)) > 0 {
					at = i
					break
				}
			}
			if at == 0 {
				t.Fatalf("no %s in a %d-cycle run", tc.name, resA.Cycles)
			}
			img, err := Save(m)
			if err != nil {
				t.Fatalf("save at cycle %d with a %s: %v", at, tc.name, err)
			}
			lm, err := Load(img)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			t.Logf("%s at cycle %d: %v", tc.name, at, parkedOps(lm, tc.kind))
			compare(t, "parked-"+tc.kind, summarize(oracle, resA), summarize(lm, lm.Run(0)))
		})
	}
}

// newWith builds a machine for (cfg, model, case) at cycle 0.
func newWith(t *testing.T, cfg config.Config, mn string, c diffCase) *machine.Machine {
	t.Helper()
	tr, err := workload.Generate(c.wl, c.p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	m, err := machine.New(cfg, mn, tr)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	return m
}

// parkedOps lists the model's parked operations of one kind, by the model
// type that holds them: "storeWaiter", "fenceWaiter" and "dfenceWaiter"
// report parked waiters, "lrpStall" an operation queued behind a blocked
// acquire, and "specCore" a PMEM-Spec core held by software recovery with
// its operation finished. The walk reads unexported state and stays inside
// the model package's own types.
func parkedOps(m *machine.Machine, kind string) []string {
	var found []string
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if v.IsNil() {
				return
			}
			if v.Kind() == reflect.Pointer {
				if seen[v.Pointer()] {
					return
				}
				seen[v.Pointer()] = true
			}
			walk(v.Elem(), path)
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"["+strconv.Itoa(i)+"]")
			}
		case reflect.Struct:
			if v.Type().PkgPath() != reflect.TypeOf(model.Env{}).PkgPath() {
				return
			}
			if v.Type().Name() == kind && parkedState(m, v) {
				found = append(found, path)
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	}
	walk(reflect.ValueOf(m.Model), "model")
	return found
}

// parkedState reports whether the model struct v of m holds a parked
// operation.
func parkedState(m *machine.Machine, v reflect.Value) bool {
	switch v.Type().Name() {
	case "lrpStall":
		return v.FieldByName("on").Bool() && v.FieldByName("op").FieldByName("kind").Int() != 0
	case "specCore":
		// Held by recovery: the core waits on an operation the model has
		// finished, and recovery has not. The model sizes its cores by the
		// config, the machine by the trace.
		cores, id := reflect.ValueOf(m).Elem().FieldByName("cores"), int(v.FieldByName("id").Int())
		return id < cores.Len() && cores.Index(id).Elem().FieldByName("inflight").Int() != 0 &&
			v.FieldByName("recoverUntil").Uint() > m.Eng.Now() &&
			!v.FieldByName("dfence").FieldByName("parked").Bool()
	default:
		return v.FieldByName("parked").Bool()
	}
}

// goldenImagePath is the committed checkpoint image: asap_ep on the cceh
// workload, saved at goldenImageCycle. TestGoldenImage loads it and reruns
// it.
func goldenImagePath() string {
	return filepath.Join("..", "..", "testdata", "golden", "checkpoint_asap_ep_cceh.ckpt")
}

const goldenImageCycle = 400

func goldenMachine(t *testing.T) *machine.Machine {
	t.Helper()
	return newAt(t, model.NameASAPEP,
		diffCase{wl: "cceh", p: workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42}}, goldenImageCycle)
}

// TestGoldenImage pins the on-disk format: the committed image must load
// and finish identically to a fresh run, and a fresh Save of the same
// state must reproduce the committed bytes exactly. A schema or format
// change fails this test; regenerate with `go test ./internal/checkpoint
// -run TestGoldenImage -update` and review the diff deliberately — old
// images stop loading when the fingerprint moves.
func TestGoldenImage(t *testing.T) {
	img, err := Save(goldenMachine(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("golden image captured at cycle %d (%d bytes)", goldenImageCycle, len(img))
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
