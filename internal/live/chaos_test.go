package live

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dlfs/internal/blockdev"
	"dlfs/internal/chaos"
	"dlfs/internal/coord"
	"dlfs/internal/dataset"
	"dlfs/internal/nvmetcp"
)

// startChaosTargets stands up n real targets, each behind its own
// fault-injecting proxy, and returns the proxy addresses plus the
// proxies for mid-test manipulation.
func startChaosTargets(t *testing.T, n int, cfg func(i int) chaos.Config) ([]string, []*chaos.Proxy) {
	t.Helper()
	addrs := make([]string, n)
	proxies := make([]*chaos.Proxy, n)
	for i := 0; i < n; i++ {
		tgt := nvmetcp.NewTarget(blockdev.New(256<<20), 32)
		taddr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tgt.Close() }) //nolint:errcheck
		p := chaos.NewProxy(taddr, cfg(i))
		paddr, err := p.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() }) //nolint:errcheck
		addrs[i] = paddr
		proxies[i] = p
	}
	return addrs, proxies
}

// TestChaosEpochSurvivesDropsAndDelays is the healthy-degradation
// acceptance case: a live run over 3 targets with seeded delays, seeded
// connection drops, and a deliberate mid-epoch kill of every live
// connection must still deliver every sample exactly once with verified
// content.
func TestChaosEpochSurvivesDropsAndDelays(t *testing.T) {
	addrs, proxies := startChaosTargets(t, 3, func(i int) chaos.Config {
		return chaos.Config{
			Seed:      int64(i) + 1,
			DelayProb: 0.05,
			Delay:     time.Millisecond,
			DropProb:  0.004,
		}
	})
	ds := testDS(300, 3000)
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:        16 << 10,
		CacheBytes:       2 << 20,
		RequestTimeout:   2 * time.Second,
		DialTimeout:      2 * time.Second,
		MaxRetries:       8,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    20 * time.Millisecond,
		BreakerThreshold: 100, // drops here are transient; never trip
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ep, err := fs.Sequence(11)
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	first, ok, err := ep.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	items = append(items, first...)
	// Sever every live connection mid-epoch: the client must re-dial
	// and re-issue without losing or corrupting a single sample.
	killed := 0
	for _, p := range proxies {
		killed += p.KillActive()
	}
	if killed == 0 {
		t.Fatal("mid-epoch kill found no live connections")
	}
	for ok {
		var batch []Item
		batch, ok, err = ep.NextBatch()
		if err != nil {
			t.Fatalf("epoch failed under chaos: %v", err)
		}
		items = append(items, batch...)
	}

	if len(items) != 300 {
		t.Fatalf("delivered %d of 300 under chaos", len(items))
	}
	seen := make([]bool, 300)
	for _, it := range items {
		if seen[it.Index] {
			t.Fatalf("sample %d delivered twice", it.Index)
		}
		seen[it.Index] = true
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("sample %d corrupted under chaos", it.Index)
		}
	}
	st := fs.Stats()
	if st.Resilience.Reconnects < 1 {
		t.Fatalf("expected reconnects after kill, stats: %s", st.Resilience)
	}
	if st.Resilience.DegradedSamples != 0 {
		t.Fatalf("healthy-recovery run skipped samples: %s", st.Resilience)
	}
	t.Logf("chaos stats: %s", st.Resilience)
}

// TestChaosMultiQPSurvivesSingleConnectionKill is the multi-queue-pair
// acceptance case: with 3 queue pairs per target, repeatedly killing
// one of a target's connections mid-epoch must not lose, duplicate, or
// corrupt a single striped sample — the survivors keep draining the
// sequence while the killed pair re-dials.
func TestChaosMultiQPSurvivesSingleConnectionKill(t *testing.T) {
	addrs, proxies := startChaosTargets(t, 2, func(i int) chaos.Config {
		return chaos.Config{Seed: int64(i) + 30}
	})
	ds := testDS(240, 3000)
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:        16 << 10,
		CacheBytes:       2 << 20,
		QueuePairs:       3,
		RequestTimeout:   2 * time.Second,
		DialTimeout:      2 * time.Second,
		MaxRetries:       8,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    20 * time.Millisecond,
		BreakerThreshold: 100, // kills here are transient; never trip
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ep, err := fs.Sequence(31)
	if err != nil {
		t.Fatal(err)
	}
	var items []Item
	batch, ok, err := ep.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	items = append(items, batch...)
	// Kill exactly one of each target's queue-pair connections every few
	// batches; the other pairs must carry the epoch meanwhile.
	kills := 0
	for ok {
		if len(items)%64 < fs.cfg.BatchSize {
			for _, p := range proxies {
				if p.KillOne() {
					kills++
				}
			}
		}
		batch, ok, err = ep.NextBatch()
		if err != nil {
			t.Fatalf("epoch failed under single-QP kills: %v", err)
		}
		items = append(items, batch...)
	}
	if kills == 0 {
		t.Fatal("no connections were killed mid-epoch")
	}

	if len(items) != 240 {
		t.Fatalf("delivered %d of 240 under QP kills", len(items))
	}
	seen := make([]bool, 240)
	for _, it := range items {
		if seen[it.Index] {
			t.Fatalf("sample %d delivered twice", it.Index)
		}
		seen[it.Index] = true
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("sample %d corrupted under QP kills", it.Index)
		}
	}
	st := fs.Stats()
	if st.Resilience.Reconnects < 1 {
		t.Fatalf("expected reconnects after QP kills, stats: %s", st.Resilience)
	}
	if st.Resilience.DegradedSamples != 0 {
		t.Fatalf("multi-QP run skipped samples: %s", st.Resilience)
	}
	t.Logf("killed %d single connections; stats: %s; pipeline: %s", kills, st.Resilience, st.Pipeline)
}

// TestChaosDegradedEpochWithDeadTarget is the hard-failure acceptance
// case: one of three targets permanently blackholed. The epoch must
// complete in degraded mode — every healthy-node sample delivered and
// verified, the dead node's samples skipped, the breaker open, and the
// retry/timeout/degraded counters accurate.
func TestChaosDegradedEpochWithDeadTarget(t *testing.T) {
	addrs, proxies := startChaosTargets(t, 3, func(i int) chaos.Config {
		return chaos.Config{Seed: int64(i) + 10}
	})
	ds := testDS(120, 2000)
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:        8 << 10,
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
	// Blackhole (do not sever): outstanding commands must hit their
	// deadlines, proving the timeout path, before reconnects start
	// timing out at the handshake.
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
	if !errors.Is(err, ErrDegraded) {
		t.Fatal("DegradedError does not match ErrDegraded")
	}
	if derr.Samples != onDead {
		t.Fatalf("degraded error reports %d skipped, want %d", derr.Samples, onDead)
	}
	if len(derr.Nodes) != 1 || derr.Nodes[0] != dead {
		t.Fatalf("degraded nodes = %v, want [%d]", derr.Nodes, dead)
	}
	if ep.Skipped() != onDead {
		t.Fatalf("Skipped() = %d, want %d", ep.Skipped(), onDead)
	}
	if len(items) != ds.Len()-onDead {
		t.Fatalf("delivered %d, want all %d healthy samples", len(items), ds.Len()-onDead)
	}
	for _, it := range items {
		if fs.nodeOf[it.Index] == dead {
			t.Fatalf("sample %d from the dead target was delivered", it.Index)
		}
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("sample %d corrupted in degraded run", it.Index)
		}
	}

	st := fs.Stats()
	if st.Targets[dead].State != "open" {
		t.Fatalf("dead target breaker state = %q, want open", st.Targets[dead].State)
	}
	if st.Resilience.Timeouts < 1 {
		t.Fatalf("no command timeouts recorded against a blackholed target: %s", st.Resilience)
	}
	if st.Resilience.Retries < 1 {
		t.Fatalf("no retries recorded: %s", st.Resilience)
	}
	if st.Resilience.BreakerTrips < 1 {
		t.Fatalf("breaker never tripped: %s", st.Resilience)
	}
	if st.Resilience.DegradedSamples != int64(onDead) {
		t.Fatalf("DegradedSamples = %d, want %d", st.Resilience.DegradedSamples, onDead)
	}
	if st.Resilience.DegradedBatches < 1 {
		t.Fatalf("no degraded batches counted: %s", st.Resilience)
	}
	// The epoch stays terminated.
	if _, ok, _ := ep.NextBatch(); ok {
		t.Fatal("NextBatch continued after degraded completion")
	}
	t.Logf("degraded stats: %s", st.Resilience)
}

// TestChaosDegradedLargeSamplesMidEpoch kills one of three targets while
// an epoch of large samples is under way: its commands die with their
// scatter lists half filled, straight into the pool buffers NextBatch
// would have handed out. The epoch must end in a DegradedError naming
// that target, having delivered no sample twice, none from a skipped
// unit, and every delivered byte intact (no buffer freed on the failure
// path while a healthy unit still owned it).
func TestChaosDegradedLargeSamplesMidEpoch(t *testing.T) {
	addrs, proxies := startChaosTargets(t, 3, func(i int) chaos.Config {
		return chaos.Config{Seed: int64(i) + 40}
	})
	ds := testDS(150, 128<<10)
	fs, err := Mount(addrs, ds, Config{
		RequestTimeout: time.Second, // the mount's 1 MiB writes must not trip it on a loaded box

		DialTimeout:      150 * time.Millisecond,
		MaxRetries:       2,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		AllowDegraded:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	const dead = 2
	ep, err := fs.Sequence(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	var derr *DegradedError
	for batch := 0; ; batch++ {
		if batch == 1 {
			proxies[dead].SetBlackhole(true)
			proxies[dead].KillActive()
		}
		items, ok, err := ep.NextBatch()
		for _, it := range items {
			if seen[it.Index] {
				t.Fatalf("sample %d delivered twice", it.Index)
			}
			seen[it.Index] = true
			if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
				t.Fatalf("sample %d corrupted in degraded run", it.Index)
			}
		}
		fs.RecycleItems(items)
		if err != nil {
			if !errors.As(err, &derr) {
				t.Fatalf("epoch ended with %v, want *DegradedError", err)
			}
			break
		}
		if !ok {
			t.Fatal("epoch ended clean with a target dead from its second batch on")
		}
	}
	if len(derr.Nodes) != 1 || derr.Nodes[0] != dead {
		t.Fatalf("degraded nodes = %v, want [%d]", derr.Nodes, dead)
	}
	if derr.Samples == 0 || len(seen)+derr.Samples != ds.Len() {
		t.Fatalf("delivered %d and skipped %d of %d samples", len(seen), derr.Samples, ds.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		if !seen[i] && fs.nodeOf[i] != dead {
			t.Fatalf("sample %d of healthy target %d was not delivered", i, fs.nodeOf[i])
		}
	}
	if pl := fs.Pipeline().Snapshot(); pl.CopyNanos != 0 || fs.arena.Arena().PeakInUse() != 0 {
		t.Fatalf("the epoch did not take the per-sample landing: CopyNanos %d, arena peak %d", pl.CopyNanos, fs.arena.Arena().PeakInUse())
	}
}

// TestChaosBreakerRecoversHalfOpen proves the open → half-open → closed
// cycle: a blackholed target trips the breaker and fast-fails reads;
// once the fault lifts and the cooldown elapses, a single probe closes
// the breaker and reads flow again.
func TestChaosBreakerRecoversHalfOpen(t *testing.T) {
	addrs, proxies := startChaosTargets(t, 2, func(i int) chaos.Config {
		return chaos.Config{Seed: int64(i) + 20}
	})
	ds := testDS(30, 1024)
	fs, err := Mount(addrs, ds, Config{
		RequestTimeout:   60 * time.Millisecond,
		DialTimeout:      60 * time.Millisecond,
		MaxRetries:       1,
		RetryBaseDelay:   time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  150 * time.Millisecond,
		ReadCacheBytes:   -1, // force every read onto the wire
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	const sick = 1
	idx := -1
	for i := 0; i < ds.Len(); i++ {
		if fs.nodeOf[i] == sick {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no sample on target 1")
	}

	proxies[sick].SetBlackhole(true)
	for i := 0; i < 2; i++ {
		if _, err := fs.ReadSample(idx); err == nil {
			t.Fatal("read succeeded against a blackholed target")
		}
	}
	if st := fs.Stats(); st.Targets[sick].State != "open" {
		t.Fatalf("breaker state = %q after failures, want open", st.Targets[sick].State)
	}
	// While open (cooldown not yet elapsed), reads fast-fail.
	start := time.Now()
	if _, err := fs.ReadSample(idx); !errors.Is(err, ErrDegraded) {
		t.Fatalf("open-breaker read: %v, want ErrDegraded", err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("open-breaker read took %v, want fast-fail", elapsed)
	}

	// Heal the fabric, let the cooldown pass: the next read is the
	// half-open probe and closes the breaker.
	proxies[sick].SetBlackhole(false)
	time.Sleep(200 * time.Millisecond)
	got, err := fs.ReadSample(idx)
	if err != nil {
		t.Fatalf("probe read after recovery: %v", err)
	}
	if dataset.ChecksumBytes(got) != ds.Checksum(idx) {
		t.Fatal("probe read corrupt")
	}
	st := fs.Stats()
	if st.Targets[sick].State != "closed" {
		t.Fatalf("breaker state = %q after probe, want closed", st.Targets[sick].State)
	}
	if st.Resilience.BreakerProbes < 1 {
		t.Fatalf("no probe counted: %s", st.Resilience)
	}
}

// TestChaosClusterPeerDiesMidAllgather is the multi-node fail-fast
// acceptance case: rank 2's coordinator connection runs through a chaos
// proxy whose byte budget kills it partway through sending the
// directory blob. The surviving ranks must fail their mount with a
// typed coord.PeerLostError naming rank 2 — once the coordinator's
// RankGrace has run out on it, not by waiting out CoordWaitTimeout.
func TestChaosClusterPeerDiesMidAllgather(t *testing.T) {
	const world = 3
	addrs := startTargets(t, world)
	caddr := startCoord(t, world)[0]

	// The doomed rank's control-plane path: budget enough for the join
	// handshake and the mount-start barrier, but not for the full
	// directory blob (80 samples / 3 ranks ≈ 26 entries ≈ 430 B), so
	// the connection dies mid-allgather by construction.
	doomed := chaos.NewProxy(caddr, chaos.Config{Seed: 1, MaxConnBytes: 220})
	daddr, err := doomed.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close() //nolint:errcheck

	ds := testDS(80, 2000)
	cfg := Config{CoordWaitTimeout: 10 * time.Second}
	var wg sync.WaitGroup
	errs := make([]error, world)
	start := time.Now()
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			coordAddr := caddr
			if r == 2 {
				coordAddr = daddr
			}
			var fs *FS
			fs, errs[r] = MountClusterPeers([]string{coordAddr}, r, world, addrs, ds, cfg)
			if fs != nil {
				fs.Close() //nolint:errcheck
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cluster mount wedged after mid-allgather death")
	}
	if elapsed := time.Since(start); elapsed > cfg.withDefaults().DialTimeout {
		t.Fatalf("survivors took %v to fail, want under the %v dial timeout", elapsed, cfg.withDefaults().DialTimeout)
	}
	if errs[2] == nil {
		t.Fatal("doomed rank mounted through a killed connection")
	}
	for r := 0; r < 2; r++ {
		var pl *coord.PeerLostError
		if !errors.As(errs[r], &pl) || !errors.Is(errs[r], coord.ErrPeerLost) {
			t.Fatalf("rank %d: want PeerLostError, got %v", r, errs[r])
		}
		if pl.Rank != 2 {
			t.Fatalf("rank %d blames rank %d, want 2", r, pl.Rank)
		}
	}
	if k := doomed.Stats().Kills; k < 1 {
		t.Fatalf("chaos proxy recorded %d kills", k)
	}
}
