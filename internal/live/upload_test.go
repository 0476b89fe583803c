package live

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dlfs/internal/blockdev"
	"dlfs/internal/chaos"
	"dlfs/internal/dataset"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
)

// startTargetObjs is startTargets for tests that read the targets' own
// counters or need a non-default engine configuration.
func startTargetObjs(t *testing.T, n int, capacity int64, cfg nvmetcp.Config) ([]*nvmetcp.Target, []string) {
	t.Helper()
	tgts := make([]*nvmetcp.Target, n)
	addrs := make([]string, n)
	for i := range tgts {
		tgts[i] = nvmetcp.NewTargetConfig(blockdev.New(capacity), cfg)
		addr, err := tgts[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tgts[i].Close() }) //nolint:errcheck
		addrs[i] = addr
	}
	return tgts, addrs
}

// sizeMix draws the sizes a mount has to cope with in one dataset:
// 1-byte samples, IMDB-like ones (~190 to a staging buffer),
// ImageNet-like ones (~9 to a buffer) and, once, a sample larger than a
// staging buffer.
type sizeMix struct {
	drawn *int
	bigAt int
}

func (m sizeMix) Name() string { return "mix" }

func (m sizeMix) SampleSize(rng *rand.Rand) int {
	*m.drawn++
	if *m.drawn == m.bigAt {
		return stagingBytes + 1 + rng.Intn(stagingBytes)
	}
	switch rng.Intn(3) {
	case 0:
		return 1
	case 1:
		return dataset.IMDBDist().SampleSize(rng)
	default:
		return dataset.ImageNetDist().SampleSize(rng)
	}
}

// verifyReadBack reads every sample through ReadSample and compares it
// with the dataset's content, byte for byte.
func verifyReadBack(t *testing.T, fs *FS, ds *dataset.Dataset) {
	t.Helper()
	for i := 0; i < ds.Len(); i++ {
		got, err := fs.ReadSample(i)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if string(got) != string(ds.Content(i)) {
			t.Fatalf("sample %d (%d bytes) read back different from what the dataset holds", i, ds.Samples[i].Size)
		}
		fs.Recycle(got)
	}
}

// TestMountUploadsShardsAsBatches is the upload engine's property over
// random size mixes and 1-4 targets: after Mount every sample reads back
// exact, each store holds exactly its shard, and the target served about
// one write command per staging buffer of shard, not one per sample.
// Every fourth trial runs against targets that speak neither opWriteVec
// nor opFlush, where the mount must succeed on plain opWrite alone.
func TestMountUploadsShardsAsBatches(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		nt, n, legacy := 1+trial%4, 40+rng.Intn(80), trial%4 == 3
		t.Run(fmt.Sprintf("seed%d_targets%d_legacy%v", seed, nt, legacy), func(t *testing.T) {
			ds := dataset.Generate(dataset.Config{Label: "mix", Seed: seed, NumSamples: n,
				Dist: sizeMix{drawn: new(int), bigAt: 1 + rng.Intn(n)}})
			var tgts []*nvmetcp.Target
			var addrs []string
			if legacy {
				tgts, addrs, _ = startLegacyTargets(t, nt)
			} else {
				tgts, addrs = startTargetObjs(t, nt, 256<<20, nvmetcp.Config{Depth: 32})
			}
			fs, err := Mount(addrs, ds, Config{ReadCacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close() //nolint:errcheck

			var total int64
			for nid, tgt := range tgts {
				shard := fs.shardLen[nid]
				total += shard
				if hw := tgt.Store().HighWater(); hw != shard {
					t.Errorf("target %d: high water %d, shard is %d bytes", nid, hw, shard)
				}
				_, writes, _, _ := tgt.OpStats()
				if most := (shard+stagingBytes-1)/stagingBytes + 2; writes > most {
					t.Errorf("target %d: %d write commands for a %d-byte shard, want at most %d", nid, writes, shard, most)
				}
			}
			if total != ds.TotalBytes() {
				t.Fatalf("shards hold %d bytes, dataset %d", total, ds.TotalBytes())
			}
			verifyReadBack(t, fs, ds)
		})
	}
}

// TestBulkWriterHoldsBuffersUntilCompletion pins the ownership rule of
// bulkWriter.post. A command's bytes are on the wire, and swallowed by a
// blackholed proxy: release must not have run, because when the
// connection is then lost the queue pair sends the command again from
// that buffer. Only after that second send completes is the buffer the
// caller's, and the store holds its bytes.
func TestBulkWriterHoldsBuffersUntilCompletion(t *testing.T) {
	addrs, proxies := startChaosTargets(t, 1, func(int) chaos.Config { return chaos.Config{Seed: 1} })
	cfg := Config{QueuePairs: 1, MaxRetries: 30, RetryBaseDelay: time.Millisecond, RetryMaxDelay: 20 * time.Millisecond}
	tgs, err := dialTargets(addrs, cfg.withDefaults(), &metrics.Resilience{})
	if err != nil {
		t.Fatal(err)
	}
	defer tgs[0].qp.Close() //nolint:errcheck

	proxies[0].SetBlackhole(true)
	src := ckptState(3, 64<<10)
	released := make(chan struct{})
	bw := newBulkWriter(tgs[0], nil)
	bw.post([]nvmetcp.WSeg{{Src: src, Off: 4096}}, func() { close(released) })
	select {
	case <-released:
		t.Fatal("the buffer was released while its command was still in flight")
	case <-time.After(100 * time.Millisecond):
	}
	proxies[0].SetBlackhole(false)
	proxies[0].KillActive()
	if err := bw.wait(); err != nil {
		t.Fatalf("write across a lost connection: %v", err)
	}
	select {
	case <-released:
	default:
		t.Fatal("the buffer was never released")
	}
	got := make([]byte, len(src))
	if _, err := tgs[0].qp.ReadAt(got, 4096); err != nil || string(got) != string(src) {
		t.Fatalf("read back after the re-send: err %v, equal %v", err, string(got) == string(src))
	}
}

// TestChaosMountSurvivesTargetKill severs every connection to both
// targets again and again while a mount streams its shards: commands die
// with their bytes half sent, sent but unanswered, or queued behind a
// reconnect, and each is sent again from its staging buffer. The mount
// must succeed and every sample must read back exact.
func TestChaosMountSurvivesTargetKill(t *testing.T) {
	// 48 MB/s a target: 12 MiB shards stream for ~250 ms, a dozen staging
	// buffers each, so the ring turns over several times under the kills.
	addrs, proxies := startChaosTargets(t, 2, func(i int) chaos.Config {
		return chaos.Config{Seed: int64(i) + 90, ThrottleBytesPerSec: 48 << 20}
	})
	ds := dataset.Generate(dataset.Config{Label: "chaos", Seed: 9, NumSamples: 400, Dist: dataset.Fixed(60 << 10)})

	// A bounded burst, as in TestChaosCheckpointSurvivesTargetKill: a
	// perpetual beam faster than a reconnect plus a 1 MiB send is a test
	// livelock, not a finding.
	stop := make(chan struct{})
	killed := make(chan int, 1)
	go func() {
		kills := 0
		for kills < 40 {
			select {
			case <-stop:
				killed <- kills
				return
			case <-time.After(4 * time.Millisecond):
			}
			// Not before the upload streams: the dial's handshake is not
			// retried (a misconfigured address must fail fast).
			if proxies[0].Stats().BytesForwarded+proxies[1].Stats().BytesForwarded < stagingBytes {
				continue
			}
			for _, p := range proxies {
				kills += p.KillActive()
			}
		}
		killed <- kills
	}()
	fs, err := Mount(addrs, ds, Config{
		ReadCacheBytes:   -1,
		RequestTimeout:   2 * time.Second,
		DialTimeout:      2 * time.Second,
		MaxRetries:       30, // outlasts the burst, see the checkpoint test
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    20 * time.Millisecond,
		BreakerThreshold: 1000,
	})
	close(stop)
	kills := <-killed
	if err != nil {
		t.Fatalf("mount under connection kills: %v (after %d kills)", err, kills)
	}
	defer fs.Close() //nolint:errcheck
	if kills == 0 {
		t.Skip("the mount finished before any connection could be killed")
	}
	verifyReadBack(t, fs, ds)
	st := fs.Stats()
	if st.Resilience.Reconnects < 1 {
		t.Fatalf("mount survived %d kills with no reconnect recorded: %s", kills, st.Resilience)
	}
	t.Logf("killed %d connections mid-mount; %s", kills, st.Resilience)
}

// TestMountUnderTenantQuota mounts as a tenant whose byte quota is well
// below what the upload can push. Throttling is backpressure: the mount
// completes at the quota's pace, throttles are counted, and neither the
// retry budget running out against the quota nor anything else about it
// reaches the breaker.
func TestMountUnderTenantQuota(t *testing.T) {
	// One second of burst, then 4 MiB/s: a 6 MiB shard spends about half
	// a second throttled, with the write window's four commands competing
	// for every refill.
	_, addrs := startTargetObjs(t, 1, 256<<20, nvmetcp.Config{Depth: 32, TenantBytesPerSec: 4 << 20})
	ds := dataset.Generate(dataset.Config{Label: "quota", Seed: 4, NumSamples: 96, Dist: dataset.Fixed(64 << 10)})
	fs, err := Mount(addrs, ds, Config{Tenant: 1, ReadCacheBytes: -1, RetryBaseDelay: time.Millisecond, MaxRetries: 1})
	if err != nil {
		t.Fatalf("mount under a byte quota: %v", err)
	}
	defer fs.Close() //nolint:errcheck
	st := fs.Stats()
	if st.Resilience.Throttles == 0 {
		t.Fatalf("a 6 MiB upload under a 4 MiB/s quota was never throttled: %s", st.Resilience)
	}
	if st.Resilience.BreakerTrips != 0 {
		t.Fatalf("throttling tripped a breaker: %s", st.Resilience)
	}
	got, err := fs.ReadSample(ds.Len() - 1)
	for errors.Is(err, nvmetcp.ErrThrottled) { // the read is this tenant's too
		time.Sleep(50 * time.Millisecond)
		got, err = fs.ReadSample(ds.Len() - 1)
	}
	if err != nil || string(got) != string(ds.Content(ds.Len()-1)) {
		t.Fatalf("last sample after a throttled mount: err %v", err)
	}
}

// TestMountFailureReleasesConnections: a store too small for its shard
// rejects a write partway through the upload (statusRange). Mount must
// return a typed error naming the target, and every queue pair it
// dialled, with its receive loop, must be gone afterwards.
func TestMountFailureReleasesConnections(t *testing.T) {
	_, addrs := startTargetObjs(t, 2, 3<<20, nvmetcp.Config{Depth: 32})
	ds := dataset.Generate(dataset.Config{Label: "small", Seed: 2, NumSamples: 200, Dist: dataset.Fixed(64 << 10)})
	before := mountGoroutines()
	fs, err := Mount(addrs, ds, Config{})
	if err == nil {
		fs.Close() //nolint:errcheck
		t.Fatal("mounted 12.5 MiB onto two 3 MiB stores")
	}
	if !errors.Is(err, nvmetcp.ErrRemote) {
		t.Fatalf("mount error %v, want one matching nvmetcp.ErrRemote", err)
	}
	if msg := err.Error(); !strings.Contains(msg, addrs[0]) && !strings.Contains(msg, addrs[1]) {
		t.Fatalf("mount error %q names no target", msg)
	}
	// A receive loop ends when it sees its closed socket, a moment after
	// Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for mountGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d client goroutines before the failed Mount, %d after", before, mountGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
