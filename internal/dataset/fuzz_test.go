package dataset

import "testing"

// FuzzScan throws arbitrary bytes at the container scanner: it must never
// panic, and anything it accepts must re-scan identically.
func FuzzScan(f *testing.F) {
	d := Generate(Config{Label: "fz", Seed: 1, NumSamples: 3, Dist: Fixed(64)})
	c := BuildContainer(d, "p", []int{0, 1, 2})
	f.Add(c.Data)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\x7f0000")) // length MaxInt64: header offset + length wrapped negative
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := Scan(data)
		if err != nil {
			return
		}
		again, err := Scan(data)
		if err != nil || len(again) != len(recs) {
			t.Fatalf("re-scan diverged: %v", err)
		}
		for i := range recs {
			if recs[i] != again[i] {
				t.Fatal("record mismatch on re-scan")
			}
		}
	})
}
