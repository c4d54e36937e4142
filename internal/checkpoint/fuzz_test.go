package checkpoint

import (
	"os"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to the image decoder. Load must return an
// error instead of panicking, ImageCycle must never panic, and an image
// that does load must report the cycle its machine's clock stands at. The
// corpus seeds from the golden image plus truncated and bit-flipped copies
// of it: header, digest and payload damage each fail a different check.
func FuzzLoad(f *testing.F) {
	golden, err := os.ReadFile(goldenImagePath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, n := range []int{0, len(imageMagic), len(imageMagic) + 1 + 16, len(golden) / 2, len(golden) - 1} {
		f.Add(golden[:n])
	}
	for _, at := range []int{0, len(imageMagic), len(imageMagic) + 1, len(imageMagic) + 1 + 32 + 9, len(golden) / 2, len(golden) - 1} {
		flipped := append([]byte(nil), golden...)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		cycle, cerr := ImageCycle(img)
		m, err := Load(img)
		if err != nil {
			return
		}
		if cerr != nil {
			t.Fatalf("image loads but ImageCycle fails: %v", cerr)
		}
		if now := m.Eng.Now(); now != cycle {
			t.Fatalf("loaded machine's clock is %d, ImageCycle reports %d", now, cycle)
		}
	})
}
