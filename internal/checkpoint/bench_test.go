package checkpoint

import (
	"testing"

	"asap/internal/config"
	"asap/internal/machine"
	"asap/internal/model"
	"asap/internal/workload"
)

// BenchmarkCheckpointRoundtrip measures one full Save+Load cycle on an
// asap_ep/cceh machine at cycle 400 — the unit of
// work a checkpoint-resume or image-based campaign pays per image. The
// committed baseline gates its time and allocs/op via cmd/benchdiff.
func BenchmarkCheckpointRoundtrip(b *testing.B) {
	tr, err := workload.Generate("cceh", workload.Params{Threads: 2, OpsPerThread: 150, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(config.Default(), model.NameASAPEP, tr)
	if err != nil {
		b.Fatal(err)
	}
	m.Advance(goldenImageCycle)
	img, err := Save(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("image: %d bytes at cycle %d", len(img), goldenImageCycle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := Save(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Load(img); err != nil {
			b.Fatal(err)
		}
	}
}
