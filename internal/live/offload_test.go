package live

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dlfs/internal/chaos"
	"dlfs/internal/dataset"
	"dlfs/internal/nvmetcp"
)

// startLegacyTargets stands up n targets that reject opReadSamples,
// opWriteVec and opFlush with statusBadOp — the older opcode set of a
// rolling upgrade — and returns them with the addresses they are that
// old at and the proxies that make them so.
func startLegacyTargets(t *testing.T, n int) ([]*nvmetcp.Target, []string, []*chaos.Proxy) {
	t.Helper()
	tgts, addrs := startTargetObjs(t, n, 256<<20, nvmetcp.Config{Depth: 32})
	olds := make([]*chaos.Proxy, n)
	for i, a := range addrs {
		old := chaos.NewProxy(a, chaos.Config{})
		old.MaskOps(nvmetcp.OpReadSamples, nvmetcp.OpWriteVec, nvmetcp.OpFlush)
		oaddr, err := old.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { old.Close() }) //nolint:errcheck
		addrs[i], olds[i] = oaddr, old
	}
	return tgts, addrs, olds
}

// datasetBytes sums the post-extraction size of every sample.
func datasetBytes(ds *dataset.Dataset) int64 {
	var total int64
	for i := 0; i < ds.Len(); i++ {
		total += int64(len(ds.Content(i)))
	}
	return total
}

// drainEpoch mounts nothing new — it runs one full verified epoch at
// seed and returns the pipeline's wire-byte delta for that epoch.
func drainEpoch(t *testing.T, fs *FS, ds *dataset.Dataset, seed int64) int64 {
	t.Helper()
	before := fs.Pipeline().Snapshot().WireBytes
	ep, err := fs.Sequence(seed)
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAndVerify(t, ep, ds); n != ds.Len() {
		t.Fatalf("delivered %d of %d", n, ds.Len())
	}
	return fs.Pipeline().Snapshot().WireBytes - before
}

// TestServerAssemblyWireExact: with no transform, the chunk path and
// server assembly both move exactly the samples' bytes in a cold epoch —
// units are sample-aligned, so neither ships chunk padding or fetches an
// edge sample twice. Assembly's case is its transforms and the skipped
// copy stage, not wire bytes.
func TestServerAssemblyWireExact(t *testing.T) {
	// 3000-byte samples on 4 KiB chunks: every grid cell has a head or a
	// tail that belongs to an edge sample.
	ds := testDS(120, 3000)
	total := datasetBytes(ds)

	base, err := Mount(startTargets(t, 2), ds, Config{ChunkSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close() //nolint:errcheck
	if wire := drainEpoch(t, base, ds, 7); wire != total {
		t.Fatalf("chunk-path epoch moved %d wire bytes, want exactly the %d sample bytes", wire, total)
	}

	fs, err := Mount(startTargets(t, 2), ds, Config{ChunkSize: 4 << 10, ServerAssembly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	if wire := drainEpoch(t, fs, ds, 7); wire != total {
		t.Fatalf("assembled epoch moved %d wire bytes, want exactly the %d sample bytes", wire, total)
	}
	pl := fs.Pipeline().Snapshot()
	if pl.OffloadCmds == 0 {
		t.Fatal("no offload commands posted with ServerAssembly on")
	}
	if pl.OffloadSamples != int64(ds.Len()) {
		t.Fatalf("OffloadSamples = %d, want %d", pl.OffloadSamples, ds.Len())
	}
	if pl.OffloadDowngrades != 0 {
		t.Fatalf("capable targets were downgraded %d times", pl.OffloadDowngrades)
	}
}

// TestServerAssemblyCRC32CEpoch runs the end-to-end-verified transform:
// every record crosses the wire with a crc32c trailer the client strips
// after checking, so delivered bytes still checksum clean and the wire
// carries exactly 4 extra bytes per sample.
func TestServerAssemblyCRC32CEpoch(t *testing.T) {
	ds := testDS(90, 2500)
	fs, err := Mount(startTargets(t, 2), ds, Config{
		ChunkSize:         4 << 10,
		ServerAssembly:    true,
		AssemblyTransform: int(nvmetcp.TransformCRC32C),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	wire := drainEpoch(t, fs, ds, 9)
	want := datasetBytes(ds) + 4*int64(ds.Len())
	if wire != want {
		t.Fatalf("crc epoch moved %d wire bytes, want %d (samples + 4/record)", wire, want)
	}
	pl := fs.Pipeline().Snapshot()
	if pl.OffloadSamples != int64(ds.Len()) || pl.OffloadDowngrades != 0 {
		t.Fatalf("offload counters off: %+v", pl)
	}
}

// TestMountRejectsSizedlessTransform: flate's output size is data-
// dependent, so the epoch pipeline (which must pre-size scatter
// destinations) refuses it at mount, as does an out-of-range ID.
func TestMountRejectsSizedlessTransform(t *testing.T) {
	addrs := startTargets(t, 1)
	ds := testDS(10, 512)
	if _, err := Mount(addrs, ds, Config{ServerAssembly: true, AssemblyTransform: int(nvmetcp.TransformFlate)}); err == nil {
		t.Fatal("mount accepted the flate transform for the epoch pipeline")
	}
	if _, err := Mount(addrs, ds, Config{ServerAssembly: true, AssemblyTransform: 99}); err == nil {
		t.Fatal("mount accepted an unknown transform ID")
	}
}

// TestLegacyTargetDowngradeEpoch is the rolling-upgrade acceptance
// case: every target speaks only the old opcode set. The epoch must
// complete with verified content via per-target downgrade to the
// vectored chunk path — never fail — and the capability latch must
// stop re-probing on later epochs.
func TestLegacyTargetDowngradeEpoch(t *testing.T) {
	_, addrs, _ := startLegacyTargets(t, 2)
	ds := testDS(100, 2000)
	fs, err := Mount(addrs, ds, Config{ChunkSize: 8 << 10, ServerAssembly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	drainEpoch(t, fs, ds, 3)
	pl := fs.Pipeline().Snapshot()
	if pl.OffloadDowngrades == 0 {
		t.Fatal("no downgrade recorded against legacy targets")
	}
	if pl.OffloadCmds != 0 || pl.OffloadSamples != 0 {
		t.Fatalf("offload commands succeeded against legacy targets: %+v", pl)
	}
	for i, tg := range fs.targets {
		if !tg.noAssembly.Load() {
			t.Fatalf("target %d capability latch not set after downgrade", i)
		}
	}

	// The latch is sticky: a second epoch re-probes nothing.
	drainEpoch(t, fs, ds, 4)
	if after := fs.Pipeline().Snapshot(); after.OffloadDowngrades != pl.OffloadDowngrades {
		t.Fatalf("downgrades grew from %d to %d across epochs: the latch must stop re-probing",
			pl.OffloadDowngrades, after.OffloadDowngrades)
	}
}

// TestLegacyTargetLatchedOncePerOpcode mounts, runs epochs and saves
// checkpoints against targets that reject all three newer opcodes, and
// counts what the targets were asked. Each kind is turned away once per
// target, by the first command of that kind (a barrier is one command
// per queue pair), and never sent again; none of it is a failed fetch, a
// retry or a breaker event, and the downgrade counters read what they
// always read: one OffloadDowngrades per rejected fetch, one
// CkptDowngrades per target for opWriteVec and one per barrier a save
// did without.
func TestLegacyTargetLatchedOncePerOpcode(t *testing.T) {
	const nt, qps = 2, 2
	_, addrs, olds := startLegacyTargets(t, nt)
	masked := func() (n int64) {
		for _, o := range olds {
			n += o.Stats().Masked
		}
		return n
	}
	ds := testDS(100, 2000)
	// One fetch worker, so a target's first opReadSamples is answered
	// before its second fetch is built.
	fs, err := Mount(addrs, ds, Config{ChunkSize: 8 << 10, ServerAssembly: true, QueuePairs: qps, Prefetchers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	if got := masked(); got != nt*qps {
		t.Fatalf("mount: %d masked commands, want each shard's barrier once per queue pair (%d)", got, nt*qps)
	}

	drainEpoch(t, fs, ds, 3)
	if got := masked(); got != nt*qps+nt {
		t.Fatalf("first epoch: %d masked commands, want one opReadSamples per target more (%d)", got, nt*qps+nt)
	}
	// 22 shards, 11 a target, in one gathered batch each.
	ck, err := fs.Checkpointer(CheckpointConfig{ShardBytes: 32 << 10, RankRegionBytes: 8 << 20, SegsPerCmd: 16})
	if err != nil {
		t.Fatal(err)
	}
	for step := uint64(1); step <= 2; step++ {
		state := ckptState(int64(step), 700<<10)
		if err := ck.Save(step, state); err != nil {
			t.Fatalf("save %d: %v", step, err)
		}
		got, at, err := ck.Load()
		if err != nil || at != step || !bytes.Equal(got, state) {
			t.Fatalf("load after save %d: step %d, err %v, equal %v", step, at, err, bytes.Equal(got, state))
		}
		fs.Recycle(got)
		drainEpoch(t, fs, ds, 3+int64(step))
	}
	if got, want := masked(), int64(nt*qps+nt+nt); got != want {
		t.Fatalf("after two saves and two more epochs: %d masked commands, want one opWriteVec per target more and nothing else (%d)", got, want)
	}

	st := fs.Stats()
	for i, tg := range fs.targets {
		if !tg.noAssembly.Load() || !tg.noVec.Load() || !tg.noFlush.Load() {
			t.Fatalf("target %d: latches assembly %v, vec %v, flush %v, want all set",
				i, tg.noAssembly.Load(), tg.noVec.Load(), tg.noFlush.Load())
		}
		if h := st.Targets[i]; h.State != "closed" || h.ConsecFails != 0 {
			t.Fatalf("target %d: breaker %+v after downgrades only", i, h)
		}
	}
	if r := st.Resilience; r.BreakerTrips != 0 || r.BreakerProbes != 0 || r.Retries != 0 || r.Reconnects != 0 || r.DegradedSamples != 0 {
		t.Fatalf("a downgrade was taken for a failure: %s", r)
	}
	pl := st.Pipeline
	if pl.OffloadDowngrades != nt || pl.OffloadCmds != 0 {
		t.Fatalf("OffloadDowngrades %d, OffloadCmds %d, want %d and 0", pl.OffloadDowngrades, pl.OffloadCmds, nt)
	}
	// Per save: a barrier per target that took shards and the manifest's.
	if want := int64(nt + 2*(nt+1)); pl.CkptDowngrades != want || pl.CkptFlushes != 0 {
		t.Fatalf("CkptDowngrades %d, CkptFlushes %d, want %d and 0", pl.CkptDowngrades, pl.CkptFlushes, want)
	}
}

// TestServerAssemblyPrefetchWarmsNextEpoch: the clairvoyant prefetcher
// rides the offload path too — epoch N's tail assembles epoch N+1's
// units target-side into per-record store entries, and the warm epoch
// drains with zero additional wire reads, handing records straight to
// NextBatch with no chunk or copy stage.
func TestServerAssemblyPrefetchWarmsNextEpoch(t *testing.T) {
	ds := testDS(80, 2000)
	fs, err := Mount(startTargets(t, 2), ds, Config{
		ChunkSize:          8 << 10,
		CacheBytes:         1 << 20,
		ServerAssembly:     true,
		CrossEpochPrefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ep1, err := fs.Sequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAndVerify(t, ep1, ds); n != ds.Len() {
		t.Fatalf("epoch 1 delivered %d of %d", n, ds.Len())
	}
	fs.WaitPrefetch()
	cold := fs.Pipeline().Snapshot()
	if cold.PrefetchedUnits == 0 {
		t.Fatalf("no lookahead happened: %+v", cold)
	}
	if cold.OffloadCmds == 0 {
		t.Fatal("prefetch rounds never used the offload path")
	}

	ep2, err := fs.Sequence(2)
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAndVerify(t, ep2, ds); n != ds.Len() {
		t.Fatalf("epoch 2 delivered %d of %d", n, ds.Len())
	}
	warm := fs.Pipeline().Snapshot()
	if warm.PrefetchHitUnits == 0 {
		t.Fatal("warm epoch never hit the lookahead store")
	}
	if got := warm.WireReads - cold.WireReads; got != 0 {
		t.Fatalf("warm epoch still issued %d wire reads", got)
	}
}

// TestClusterPrefetchConsultsPeersFirst: on a cluster mount the
// prefetcher asks the owning rank's cooperative sample cache before
// the storage wire — remotely-owned units park from peer pulls, and
// the warm epoch still delivers verified content.
func TestClusterPrefetchConsultsPeersFirst(t *testing.T) {
	const world = 2
	addrs := startTargets(t, world)
	peers := startCoord(t, world)
	ds := testDS(60, 2000)
	cfg := Config{
		ChunkSize:          8 << 10,
		CacheBytes:         1 << 20,
		ReadCacheBytes:     32 << 20, // owners hold their full shard: peers always answer
		PeerCache:          true,
		ServerAssembly:     true,
		CrossEpochPrefetch: true,
	}
	fss := mountClusterPeers(t, peers, addrs, ds, cfg)

	// Warm every owner's read cache so the peer service has records to
	// serve (the service fronts the read cache, not the target).
	for _, fs := range fss {
		readAllVerify(t, fs, ds)
	}
	warmHits := fss[0].Pipeline().Snapshot().PeerHits

	ep1, err := fss[0].Sequence(5)
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAndVerify(t, ep1, ds); n == 0 {
		t.Fatal("rank 0 epoch slice was empty")
	}
	fss[0].WaitPrefetch()
	cold := fss[0].Pipeline().Snapshot()
	if cold.PrefetchedUnits == 0 {
		t.Fatalf("no lookahead on the cluster mount: %+v", cold)
	}
	if cold.PeerHits <= warmHits {
		t.Fatalf("prefetcher never pulled from the peer cache (hits %d, was %d before the round)",
			cold.PeerHits, warmHits)
	}

	ep2, err := fss[0].Sequence(6)
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAndVerify(t, ep2, ds); n == 0 {
		t.Fatal("rank 0 warm epoch was empty")
	}
	if after := fss[0].Pipeline().Snapshot(); after.PrefetchHitUnits == 0 {
		t.Fatal("warm epoch never hit the lookahead store")
	}
}

// TestChaosOffloadDeadTargetDegrades is the mid-offload failure
// acceptance case: one of three targets blackholed while the epoch
// runs with server assembly on. Offload command timeouts must feed the
// same circuit breaker as the chunk path — the epoch completes
// degraded with every healthy sample assembled and verified, and the
// fault is never misread as a capability downgrade.
func TestChaosOffloadDeadTargetDegrades(t *testing.T) {
	addrs, proxies := startChaosTargets(t, 3, func(i int) chaos.Config {
		return chaos.Config{Seed: int64(i) + 40}
	})
	ds := testDS(120, 2000)
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:        8 << 10,
		ServerAssembly:   true,
		RequestTimeout:   100 * time.Millisecond,
		DialTimeout:      150 * time.Millisecond,
		MaxRetries:       2,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stays open for the whole test
		AllowDegraded:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	const dead = 1
	onDead := 0
	for i := 0; i < ds.Len(); i++ {
		if fs.nodeOf[i] == dead {
			onDead++
		}
	}
	if onDead == 0 {
		t.Fatal("no samples hashed to the dead target")
	}
	proxies[dead].SetBlackhole(true)

	ep, err := fs.Sequence(5)
	if err != nil {
		t.Fatal(err)
	}
	items, err := ep.Drain()
	var derr *DegradedError
	if !errors.As(err, &derr) {
		t.Fatalf("Drain error = %v, want *DegradedError", err)
	}
	if derr.Samples != onDead {
		t.Fatalf("degraded error reports %d skipped, want %d", derr.Samples, onDead)
	}
	if len(items) != ds.Len()-onDead {
		t.Fatalf("delivered %d, want all %d healthy samples", len(items), ds.Len()-onDead)
	}
	for _, it := range items {
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("sample %d corrupted in degraded offload run", it.Index)
		}
	}

	st := fs.Stats()
	if st.Targets[dead].State != "open" {
		t.Fatalf("dead target breaker state = %q, want open", st.Targets[dead].State)
	}
	if st.Resilience.BreakerTrips < 1 {
		t.Fatalf("offload timeouts never tripped the breaker: %s", st.Resilience)
	}
	pl := fs.Pipeline().Snapshot()
	// A dead fabric is a health failure, not a missing opcode: the
	// capability latch must stay clear on every target.
	if pl.OffloadDowngrades != 0 {
		t.Fatalf("fabric fault recorded as %d capability downgrades", pl.OffloadDowngrades)
	}
	for i, tg := range fs.targets {
		if tg.noAssembly.Load() {
			t.Fatalf("target %d latched no-assembly after a timeout", i)
		}
	}
	if pl.OffloadCmds == 0 {
		t.Fatal("healthy targets never served offload commands")
	}
}
