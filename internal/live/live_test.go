package live

import (
	"errors"
	"sync"
	"testing"

	"dlfs/internal/dataset"
	"dlfs/internal/nvmetcp"
)

func startTargets(t *testing.T, n int) []string {
	t.Helper()
	_, addrs := startTargetObjs(t, n, 256<<20, nvmetcp.Config{Depth: 32})
	return addrs
}

func testDS(n, size int) *dataset.Dataset {
	return dataset.Generate(dataset.Config{Label: "live", Seed: 23, NumSamples: n, Dist: dataset.Fixed(size)})
}

func TestMountAndReadSample(t *testing.T) {
	addrs := startTargets(t, 3)
	ds := testDS(60, 2000)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	if fs.Directory().NumSamples() != 60 {
		t.Fatal("directory size")
	}
	for i := 0; i < 60; i++ {
		got, err := fs.ReadSample(i)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if dataset.ChecksumBytes(got) != ds.Checksum(i) {
			t.Fatalf("sample %d corrupt over live TCP path", i)
		}
	}
}

func TestReadByName(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(10, 512)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	got, err := fs.ReadName(ds.Samples[4].Name, "class"+string(rune('0'+ds.Samples[4].Class)))
	if err != nil {
		t.Fatal(err)
	}
	if dataset.ChecksumBytes(got) != ds.Checksum(4) {
		t.Fatal("corrupt by-name read")
	}
	if _, err := fs.ReadName("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing name: %v", err)
	}
	if _, err := fs.ReadSample(-1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bad index: %v", err)
	}
}

func TestEpochDeliversEverySampleOnce(t *testing.T) {
	addrs := startTargets(t, 3)
	ds := testDS(300, 3000)
	fs, err := Mount(addrs, ds, Config{ChunkSize: 16 << 10, CacheBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	ep, err := fs.Sequence(7)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Total() != 300 {
		t.Fatalf("total %d", ep.Total())
	}
	items, err := ep.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 300 {
		t.Fatalf("delivered %d of 300", len(items))
	}
	seen := make([]bool, 300)
	for _, it := range items {
		if seen[it.Index] {
			t.Fatalf("sample %d delivered twice", it.Index)
		}
		seen[it.Index] = true
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("sample %d corrupt in epoch", it.Index)
		}
	}
}

// TestColdEpochWireBytesAreSampleBytes: units are sample-aligned, so a
// cold epoch pulls exactly the dataset's bytes however samples straddle
// the chunk grid — many to a chunk, or larger than one — and the mount's
// unit plan, which every epoch copies, is left as it was built.
func TestColdEpochWireBytesAreSampleBytes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		dist  dataset.SizeDist
		n     int
		chunk int
	}{
		{"many-per-chunk", dataset.IMDBDist(), 2000, 16 << 10},
		{"larger-than-chunk", dataset.ImageNetDist(), 60, 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := dataset.Generate(dataset.Config{Label: "live", Seed: 29, NumSamples: tc.n, Dist: tc.dist})
			fs, err := Mount(startTargets(t, 2), ds, Config{ChunkSize: tc.chunk, CacheBytes: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close() //nolint:errcheck
			total := datasetBytes(ds)
			for seed := int64(1); seed <= 2; seed++ {
				if wire := drainEpoch(t, fs, ds, seed); wire != total {
					t.Fatalf("epoch %d moved %d wire bytes for %d sample bytes", seed, wire, total)
				}
			}
			var planned int64
			for i := range fs.unitPlan {
				u := &fs.unitPlan[i]
				if u.chunks != nil || u.next != 0 || u.seq != 0 {
					t.Fatalf("an epoch wrote to plan unit %d: %+v", i, u)
				}
				planned += int64(u.length)
			}
			if planned != total {
				t.Fatalf("the unit plan spans %d bytes, the samples %d", planned, total)
			}
		})
	}
}

func TestEpochOrderIsShuffled(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(400, 600)
	fs, err := Mount(addrs, ds, Config{ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	ep, _ := fs.Sequence(3)
	items, err := ep.Drain()
	if err != nil {
		t.Fatal(err)
	}
	fixed := 0
	for i, it := range items {
		if it.Index == i {
			fixed++
		}
	}
	if fixed > len(items)/5 {
		t.Fatalf("%d/%d fixed points: emission not shuffled", fixed, len(items))
	}
}

func TestBatchSizes(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(100, 1000)
	fs, err := Mount(addrs, ds, Config{BatchSize: 16, ChunkSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	ep, _ := fs.Sequence(1)
	total := 0
	for {
		items, ok, err := ep.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if len(items) > 16 {
			t.Fatalf("batch of %d", len(items))
		}
		total += len(items)
		if !ok {
			break
		}
	}
	if total != 100 {
		t.Fatalf("delivered %d", total)
	}
}

func TestMultipleClientsShareTargets(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(80, 1500)
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fs, err := Mount(addrs, ds, Config{ChunkSize: 8 << 10})
			if err != nil {
				t.Error(err)
				return
			}
			defer fs.Close() //nolint:errcheck
			for i := c; i < 80; i += 3 {
				got, err := fs.ReadSample(i)
				if err != nil || dataset.ChecksumBytes(got) != ds.Checksum(i) {
					t.Errorf("client %d sample %d: err=%v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestClosedFS(t *testing.T) {
	addrs := startTargets(t, 1)
	ds := testDS(4, 100)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fs.Close() //nolint:errcheck
	if _, err := fs.ReadSample(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := fs.Sequence(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("sequence after close: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestMountFailsOnDeadTarget(t *testing.T) {
	ds := testDS(4, 100)
	if _, err := Mount([]string{"127.0.0.1:1"}, ds, Config{}); err == nil {
		t.Fatal("mount to dead target succeeded")
	}
	if _, err := Mount(nil, ds, Config{}); err == nil {
		t.Fatal("mount with no targets succeeded")
	}
}

func TestTinyCacheStillCompletes(t *testing.T) {
	// Cache of one huge page (8 chunks of 256K): fetchers must block on
	// the arena and recycle chunks as batches drain.
	addrs := startTargets(t, 2)
	ds := testDS(500, 2000)
	fs, err := Mount(addrs, ds, Config{CacheBytes: 1, ChunkSize: 256 << 10, Prefetchers: 4, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	ep, _ := fs.Sequence(9)
	items, err := ep.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 500 {
		t.Fatalf("delivered %d of 500", len(items))
	}
}

func TestReadCacheHitsAndVBits(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(20, 4096)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	a, err := fs.ReadSample(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadSample(5)
	if err != nil {
		t.Fatal(err)
	}
	if fs.CacheHits() != 1 {
		t.Fatalf("cache hits = %d", fs.CacheHits())
	}
	if dataset.ChecksumBytes(a) != dataset.ChecksumBytes(b) || dataset.ChecksumBytes(a) != ds.Checksum(5) {
		t.Fatal("cached read differs from cold read")
	}
	// Caller mutating a returned buffer must not poison the cache.
	b[0] ^= 0xFF
	c, _ := fs.ReadSample(5)
	if dataset.ChecksumBytes(c) != ds.Checksum(5) {
		t.Fatal("cache poisoned by caller mutation")
	}
	// The V bit tracks residency.
	_, ref, _, ok := fs.Directory().Lookup(ds.Samples[5].Key())
	if !ok || !fs.Directory().At(ref).V() {
		t.Fatal("V bit not set for cached sample")
	}
}

func TestReadCacheEvictsAtBudget(t *testing.T) {
	addrs := startTargets(t, 1)
	ds := testDS(10, 4096)
	// Budget of 2 samples.
	fs, err := Mount(addrs, ds, Config{ReadCacheBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	for i := 0; i < 5; i++ {
		if _, err := fs.ReadSample(i); err != nil {
			t.Fatal(err)
		}
	}
	// Sample 0 evicted: V clear; sample 4 resident: V set.
	_, ref0, _, _ := fs.Directory().Lookup(ds.Samples[0].Key())
	_, ref4, _, _ := fs.Directory().Lookup(ds.Samples[4].Key())
	if fs.Directory().At(ref0).V() {
		t.Fatal("evicted sample still marked resident")
	}
	if !fs.Directory().At(ref4).V() {
		t.Fatal("recent sample not marked resident")
	}
	if _, err := fs.ReadSample(0); err != nil {
		t.Fatal(err)
	}
	if fs.CacheHits() != 0 {
		t.Fatalf("unexpected hits: %d", fs.CacheHits())
	}
}

func TestReadCacheDisabled(t *testing.T) {
	addrs := startTargets(t, 1)
	ds := testDS(4, 1024)
	fs, err := Mount(addrs, ds, Config{ReadCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	fs.ReadSample(1) //nolint:errcheck
	fs.ReadSample(1) //nolint:errcheck
	if fs.CacheHits() != 0 {
		t.Fatalf("cache active while disabled: %d hits", fs.CacheHits())
	}
}
