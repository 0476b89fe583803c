package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Label: "d", Seed: 42, NumSamples: 100, Dist: ImageNetDist()}
	a := Generate(cfg)
	b := Generate(cfg)
	if a.Len() != 100 || b.Len() != 100 {
		t.Fatalf("len %d %d", a.Len(), b.Len())
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	if a.TotalBytes() != b.TotalBytes() || a.TotalBytes() <= 0 {
		t.Fatalf("total bytes %d %d", a.TotalBytes(), b.TotalBytes())
	}
}

func TestContentDeterministicAndDistinct(t *testing.T) {
	d := Generate(Config{Label: "d", Seed: 7, NumSamples: 10, Dist: Fixed(1024)})
	c1 := d.Content(3)
	c2 := d.Content(3)
	if string(c1) != string(c2) {
		t.Fatal("content not deterministic")
	}
	if string(d.Content(3)) == string(d.Content(4)) {
		t.Fatal("distinct samples have identical content")
	}
	other := Generate(Config{Label: "d", Seed: 8, NumSamples: 10, Dist: Fixed(1024)})
	if string(other.Content(3)) == string(c1) {
		t.Fatal("different seeds produced identical content")
	}
	if d.Checksum(3) != ChecksumBytes(c1) {
		t.Fatal("checksum mismatch")
	}
}

// TestFillDeterministicStream pins the content stream: word-at-a-time
// generation must produce the bytes of the byte-at-a-time definition
// for every length, including a cut last word, so datasets uploaded by
// one build verify under another.
func TestFillDeterministicStream(t *testing.T) {
	reference := func(seed, idx int64, buf []byte) {
		x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(idx)*0xBF58476D1CE4E5B9
		if x == 0 {
			x = 0x2545F4914F6CDD1D
		}
		for off := range buf {
			if off%8 == 0 {
				x ^= x >> 12
				x ^= x << 25
				x ^= x >> 27
			}
			buf[off] = byte((x * 0x2545F4914F6CDD1D) >> (8 * (off % 8)))
		}
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 1023, 4096, 100001} {
		for _, seed := range []int64{0, 1, -5} {
			got, want := make([]byte, n+1), make([]byte, n+1)
			fillDeterministic(seed, int64(n), got[:n])
			reference(seed, int64(n), want[:n])
			if string(got) != string(want) {
				t.Fatalf("seed %d, %d bytes: stream differs from its definition (or ran past the buffer)", seed, n)
			}
		}
	}
}

func TestFillContentTooSmallPanics(t *testing.T) {
	d := Generate(Config{Seed: 1, NumSamples: 1, Dist: Fixed(100)})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.FillContent(0, make([]byte, 10))
}

func TestFixedDist(t *testing.T) {
	d := Generate(Config{Seed: 1, NumSamples: 50, Dist: Fixed(512)})
	for _, s := range d.Samples {
		if s.Size != 512 {
			t.Fatalf("size %d", s.Size)
		}
	}
	if d.MeanSize() != 512 {
		t.Fatalf("mean %v", d.MeanSize())
	}
	if Fixed(512).Name() != "fixed-512B" {
		t.Fatalf("name %q", Fixed(512).Name())
	}
}

func TestImageNetQuantiles(t *testing.T) {
	// Paper: ~75% of ImageNet samples below 147 KB.
	d := Generate(Config{Label: "imagenet", Seed: 1, NumSamples: 20000, Dist: ImageNetDist()})
	pts := d.SizeCDF([]float64{50, 75})
	p75 := pts[1].SizeBytes
	if p75 < 110<<10 || p75 > 190<<10 {
		t.Fatalf("imagenet p75 = %d bytes, want ~147KB", p75)
	}
}

func TestIMDBQuantiles(t *testing.T) {
	// Paper: ~75% of IMDB samples below 1.6 KB.
	d := Generate(Config{Label: "imdb", Seed: 1, NumSamples: 20000, Dist: IMDBDist()})
	pts := d.SizeCDF([]float64{75})
	p75 := pts[0].SizeBytes
	if p75 < 1200 || p75 > 2100 {
		t.Fatalf("imdb p75 = %d bytes, want ~1.6KB", p75)
	}
}

func TestLogNormalClamp(t *testing.T) {
	l := LogNormal{Mu: 10, Sigma: 3, Min: 100, Max: 200, Label: "x"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		s := l.SampleSize(rng)
		if s < 100 || s > 200 {
			t.Fatalf("size %d outside clamp", s)
		}
	}
	if l.Name() != "x" {
		t.Fatal("label")
	}
}

func TestShardPartition(t *testing.T) {
	d := Generate(Config{Seed: 2, NumSamples: 103, Dist: Fixed(10)})
	seen := map[int]int{}
	for nid := 0; nid < 7; nid++ {
		for _, i := range d.Shard(nid, 7) {
			seen[i]++
		}
	}
	if len(seen) != 103 {
		t.Fatalf("shards cover %d of 103 samples", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("sample %d in %d shards", i, n)
		}
	}
	if d.Shard(-1, 7) != nil || d.Shard(7, 7) != nil || d.Shard(0, 0) != nil {
		t.Fatal("invalid shard args should return nil")
	}
}

// Property: shards always partition the dataset for any (samples, nodes).
func TestShardPartitionProperty(t *testing.T) {
	f := func(nRaw, nodesRaw uint8) bool {
		n := int(nRaw)
		nodes := int(nodesRaw%16) + 1
		d := Generate(Config{Seed: 3, NumSamples: n, Dist: Fixed(8)})
		count := 0
		last := -1
		for nid := 0; nid < nodes; nid++ {
			for _, i := range d.Shard(nid, nodes) {
				if i != last+1 {
					return false // must be contiguous ascending
				}
				last = i
				count++
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKeysMostlyUnique(t *testing.T) {
	d := Generate(Config{Label: "k", Seed: 5, NumSamples: 50000, Dist: Fixed(16)})
	keys := map[uint64]bool{}
	dups := 0
	for _, s := range d.Samples {
		k := s.Key()
		if keys[k] {
			dups++
		}
		keys[k] = true
	}
	if dups > 1 {
		t.Fatalf("%d duplicate keys in 50k samples", dups)
	}
}

func TestContainerRoundTrip(t *testing.T) {
	d := Generate(Config{Label: "c", Seed: 9, NumSamples: 20, Dist: Fixed(777)})
	idx := []int{3, 1, 4, 1, 5} // duplicates allowed: same sample packed twice
	c := BuildContainer(d, "part-0", idx)
	if len(c.Records) != len(idx) {
		t.Fatalf("records %d", len(c.Records))
	}
	for r, si := range idx {
		got, err := c.ReadRecord(r)
		if err != nil {
			t.Fatalf("record %d: %v", r, err)
		}
		if ChecksumBytes(got) != d.Checksum(si) {
			t.Fatalf("record %d content mismatch", r)
		}
	}
	if _, err := c.ReadRecord(-1); err == nil {
		t.Fatal("negative record should fail")
	}
	if _, err := c.ReadRecord(len(idx)); err == nil {
		t.Fatal("out of range record should fail")
	}
}

func TestContainerDetectsCorruption(t *testing.T) {
	d := Generate(Config{Label: "c", Seed: 9, NumSamples: 4, Dist: Fixed(256)})
	c := BuildContainer(d, "p", []int{0, 1, 2, 3})
	c.Data[c.Records[2].Offset+5] ^= 0xFF
	if _, err := c.ReadRecord(2); err != ErrCorrupt {
		t.Fatalf("corruption not detected: %v", err)
	}
	// Other records still fine.
	if _, err := c.ReadRecord(1); err != nil {
		t.Fatalf("record 1: %v", err)
	}
}

func TestScanRebuildsIndex(t *testing.T) {
	d := Generate(Config{Label: "c", Seed: 11, NumSamples: 8, Dist: IMDBDist()})
	c := BuildContainer(d, "p", []int{0, 1, 2, 3, 4, 5, 6, 7})
	recs, err := Scan(c.Data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 8 {
		t.Fatalf("scan found %d records", len(recs))
	}
	for i, r := range recs {
		if r.Offset != c.Records[i].Offset || r.Length != c.Records[i].Length {
			t.Fatalf("record %d: scan %+v vs index %+v", i, r, c.Records[i])
		}
	}
}

func TestScanCorrupt(t *testing.T) {
	if _, err := Scan([]byte{1, 2, 3}); err != ErrCorrupt {
		t.Fatalf("short data: %v", err)
	}
	d := Generate(Config{Seed: 1, NumSamples: 2, Dist: Fixed(64)})
	c := BuildContainer(d, "p", []int{0, 1})
	c.Data[0] = 0xFF // absurd length
	if _, err := Scan(c.Data); err != ErrCorrupt {
		t.Fatalf("bad length: %v", err)
	}
}

func TestSizeCDFEmpty(t *testing.T) {
	d := Generate(Config{Seed: 1, NumSamples: 0, Dist: Fixed(64)})
	pts := d.SizeCDF([]float64{50})
	if len(pts) != 1 || pts[0].SizeBytes != 0 {
		t.Fatalf("empty CDF = %+v", pts)
	}
}
