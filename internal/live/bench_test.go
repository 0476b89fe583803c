package live

import (
	"fmt"
	"runtime"
	"testing"

	"dlfs/internal/blockdev"
	"dlfs/internal/dataset"
	"dlfs/internal/nvmetcp"
)

// benchTargets is startTargets without *testing.T plumbing so benchmarks
// can share it.
func benchTargets(b *testing.B, n int) []string {
	b.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tgt := nvmetcp.NewTarget(blockdev.New(512<<20), 64)
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { tgt.Close() }) //nolint:errcheck
		addrs[i] = addr
	}
	return addrs
}

// BenchmarkMount measures dlfs_mount (place, upload, index) against
// fresh targets, on the benchmark's two size mixes: per-sample cost on
// the IMDB one, per-byte cost on the ImageNet one.
func BenchmarkMount(b *testing.B) {
	for _, tc := range []struct {
		name    string
		samples int
		dist    dataset.SizeDist
	}{
		{"imdb", 30000, dataset.IMDBDist()},
		{"imagenet", 1024, dataset.ImageNetDist()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ds := dataset.Generate(dataset.Config{Label: "bench", Seed: 1, NumSamples: tc.samples, Dist: tc.dist})
			b.SetBytes(ds.TotalBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				addrs := benchTargets(b, 2)
				b.StartTimer()
				fs, err := Mount(addrs, ds, Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				fs.Close() //nolint:errcheck
			}
		})
	}
}

// BenchmarkLiveEpoch measures end-to-end epoch throughput (samples/sec
// and MB/s) with queue-pair fan-out off and on. The last numbers of the
// uncoalesced and unpooled modes it used to be read against are in
// CHANGES.md (PR 18).
func BenchmarkLiveEpoch(b *testing.B) {
	const (
		numSamples = 512
		sampleSize = 16 << 10
	)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"qp1_coalesce_pool", Config{QueuePairs: 1}},
		{"qp4_coalesce_pool", Config{QueuePairs: 4}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			addrs := benchTargets(b, 2)
			ds := testDS(numSamples, sampleSize)
			cfg := tc.cfg
			cfg.ChunkSize = 64 << 10
			cfg.CacheBytes = 16 << 20
			cfg.ReadCacheBytes = -1 // measure the wire path, not the V-bit cache
			fs, err := Mount(addrs, ds, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close() //nolint:errcheck
			b.SetBytes(int64(numSamples * sampleSize))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if delivered := drainRecycling(b, fs, int64(i)); delivered != numSamples {
					b.Fatalf("delivered %d of %d", delivered, numSamples)
				}
			}
			b.StopTimer()
			st := fs.Stats()
			b.ReportMetric(float64(numSamples*b.N)/b.Elapsed().Seconds(), "samples/sec")
			if st.Pipeline.WireReads > 0 {
				b.ReportMetric(st.Pipeline.CoalesceRatio(), "segs/wire-read")
			}
		})
	}
}

// BenchmarkEmitSmall is the emit path on samples ~190 to a chunk, where
// NextBatch's per-sample cost is the whole cost: one consumer drains an
// epoch of 30000 samples and recycles every batch, as imdb-cold does.
// ns/sample is wall time per sample (fetch included), allocs/sample counts
// every goroutine's, copy-ns/sample is the copy stage's share (CopyNanos).
func BenchmarkEmitSmall(b *testing.B) {
	const numSamples = 30000
	for _, tc := range []struct {
		name string
		dist dataset.SizeDist
	}{
		{"fixed1KiB", dataset.Fixed(1 << 10)},
		{"imdb", dataset.IMDBDist()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ds := dataset.Generate(dataset.Config{Label: "bench", Seed: 1, NumSamples: numSamples, Dist: tc.dist})
			fs, err := Mount(benchTargets(b, 2), ds, Config{ReadCacheBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close() //nolint:errcheck
			b.SetBytes(ds.TotalBytes())
			drainRecycling(b, fs, -1) // fill the pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			copied := fs.Pipeline().CopyNanos.Load()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := drainRecycling(b, fs, int64(i)); n != numSamples {
					b.Fatalf("delivered %d of %d", n, numSamples)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			samples := float64(numSamples) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/samples, "allocs/sample")
			b.ReportMetric(float64(fs.Pipeline().CopyNanos.Load()-copied)/samples, "copy-ns/sample")
		})
	}
}

// drainRecycling consumes one epoch the way a training loop does,
// handing every batch back, and returns the samples delivered.
func drainRecycling(tb testing.TB, fs *FS, seed int64) int {
	tb.Helper()
	ep, err := fs.Sequence(seed)
	if err != nil {
		tb.Fatal(err)
	}
	delivered := 0
	for {
		items, ok, err := ep.NextBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return delivered
		}
		delivered += len(items)
		fs.RecycleItems(items)
	}
}

// BenchmarkLandingSweep is where perSampleLanding comes from: 96 MiB of
// Fixed samples over two targets at the defaults, each size through both
// landings (the threshold forced through the unexported field after
// Mount), with a consumer that touches two bytes of each sample, as one
// that decodes elsewhere would. MB/s per cell; the table and the
// constant it justifies are in DESIGN.md §9.
var landingSink byte // keeps the consumer's two loads per sample alive

func BenchmarkLandingSweep(b *testing.B) {
	const totalBytes = 96 << 20
	for _, kib := range []int{2, 4, 8, 16, 32, 64, 128} {
		for _, landing := range []struct {
			name    string
			landMin int64
		}{{"arena", 1 << 40}, {"per-sample", 0}} {
			b.Run(fmt.Sprintf("%dKiB/%s", kib, landing.name), func(b *testing.B) {
				ds := testDS(totalBytes/(kib<<10), kib<<10)
				fs, err := Mount(benchTargets(b, 2), ds, Config{})
				if err != nil {
					b.Fatal(err)
				}
				defer fs.Close() //nolint:errcheck
				fs.landMin = landing.landMin
				b.SetBytes(totalBytes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ep, err := fs.Sequence(int64(i))
					if err != nil {
						b.Fatal(err)
					}
					for {
						items, ok, err := ep.NextBatch()
						if err != nil {
							b.Fatal(err)
						}
						for _, it := range items {
							landingSink += it.Data[0] + it.Data[len(it.Data)-1]
						}
						fs.RecycleItems(items)
						if !ok {
							break
						}
					}
				}
			})
		}
	}
}

// BenchmarkReadSample measures the dlfs_open/read/close hot path served
// from the sharded V-bit cache. The hit path with histograms off is the
// allocs/op acceptance bound (0 allocs/op, 0 B/op, pinned by
// TestReadSampleHitPathAllocs); the hist cell shows the observability
// overhead — two clock reads and two atomic adds per hit.
func BenchmarkReadSample(b *testing.B) {
	cases := []struct {
		name string
		hist bool
	}{
		{"pool", false},
		{"pool_hist", true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			addrs := benchTargets(b, 1)
			ds := testDS(64, 4<<10)
			fs, err := Mount(addrs, ds, Config{StageHistograms: tc.hist})
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close() //nolint:errcheck
			// Warm the cache: 64 * 4 KiB fits the default budget easily.
			for i := 0; i < ds.Len(); i++ {
				got, err := fs.ReadSample(i)
				if err != nil {
					b.Fatal(err)
				}
				fs.Recycle(got)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := fs.ReadSample(i % ds.Len())
				if err != nil {
					b.Fatal(err)
				}
				fs.Recycle(got)
			}
		})
	}
}

// BenchmarkReadSampleParallel drives the sharded cache from all procs —
// the contention case the per-shard mutexes exist for.
func BenchmarkReadSampleParallel(b *testing.B) {
	addrs := benchTargets(b, 1)
	ds := testDS(64, 4<<10)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	for i := 0; i < ds.Len(); i++ {
		got, err := fs.ReadSample(i)
		if err != nil {
			b.Fatal(err)
		}
		fs.Recycle(got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			got, err := fs.ReadSample(i % ds.Len())
			if err != nil {
				b.Error(err)
				return
			}
			fs.Recycle(got)
			i++
		}
	})
}

// TestBenchmarkConfigsDeliver sanity-checks every benchmark cell once so
// `go test` catches a broken matrix without running `make bench`.
func TestBenchmarkConfigsDeliver(t *testing.T) {
	for _, cfg := range []Config{
		{QueuePairs: 1},
		{QueuePairs: 4},
	} {
		addrs := startTargets(t, 2)
		ds := testDS(96, 8<<10)
		cfg.ChunkSize = 32 << 10
		cfg.CacheBytes = 4 << 20
		fs, err := Mount(addrs, ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		items, err := fs.mustEpoch(t)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 96 {
			t.Fatalf("cfg %+v delivered %d of 96", cfg, len(items))
		}
		fs.Close() //nolint:errcheck
	}
}

func (fs *FS) mustEpoch(t *testing.T) ([]Item, error) {
	t.Helper()
	ep, err := fs.Sequence(7)
	if err != nil {
		return nil, err
	}
	return ep.Drain()
}
