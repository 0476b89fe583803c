package live

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dlfs/internal/chaos"
	"dlfs/internal/dataset"
	"dlfs/internal/metrics"
)

// drainAndVerify consumes a whole epoch and checksums every sample.
func drainAndVerify(t *testing.T, ep *Epoch, ds *dataset.Dataset) int {
	t.Helper()
	items, err := ep.Drain()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("sample %d corrupt", it.Index)
		}
	}
	return len(items)
}

// TestCrossEpochPrefetchWarmsNextEpoch: with the clairvoyant prefetcher
// on, epoch N's tail fetches epoch N+1's units ahead of time, so the
// second epoch is served from the lookahead store with zero wire reads.
func TestCrossEpochPrefetchWarmsNextEpoch(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(80, 2000)
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:          8 << 10,
		CacheBytes:         1 << 20,
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
	if cold.PrefetchedUnits == 0 || cold.PrefetchedBytes == 0 {
		t.Fatalf("no lookahead happened: %+v", cold)
	}
	if cold.PrefetchHitUnits != 0 {
		t.Fatalf("store hits before any warm epoch: %d", cold.PrefetchHitUnits)
	}

	// The default prediction is seed+1; epoch 2 must come entirely from
	// the store (world=1: the slice is the full unit set, so even the
	// seed only affects order, not membership).
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
	if warm.PrefetchHitBytes != cold.PrefetchedBytes {
		t.Fatalf("hit bytes %d != prefetched bytes %d", warm.PrefetchHitBytes, cold.PrefetchedBytes)
	}
	if cov := warm.PrefetchCoverage(); cov <= 0 {
		t.Fatalf("coverage %f", cov)
	}
}

// TestCrossEpochPrefetchSlices: on a sliced (cluster-shaped) sequence
// the prediction must match the next epoch's slice for the same rank —
// hits only make sense if the shuffle derivation is identical.
func TestCrossEpochPrefetchSlices(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(120, 1500)
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:          8 << 10,
		CacheBytes:         1 << 20,
		CrossEpochPrefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ep1, err := fs.SequenceSlice(10, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	drainAndVerify(t, ep1, ds)
	fs.WaitPrefetch()
	before := fs.Pipeline().Snapshot()
	if before.PrefetchedUnits == 0 {
		t.Fatal("no lookahead on the sliced epoch")
	}
	ep2, err := fs.SequenceSlice(11, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	drainAndVerify(t, ep2, ds)
	after := fs.Pipeline().Snapshot()
	if after.PrefetchHitUnits == 0 {
		t.Fatal("sliced warm epoch never hit the store")
	}
	if after.PrefetchHitUnits != before.PrefetchedUnits {
		t.Fatalf("hits %d != prefetched %d (prediction diverged from the real slice)",
			after.PrefetchHitUnits, before.PrefetchedUnits)
	}
	if got := after.WireReads - before.WireReads; got != 0 {
		t.Fatalf("the predicted slice missed units of the consumed one: %d wire reads in the warm epoch", got)
	}
}

// TestWarmEpochsNeverTouchTheWire: with an arena so small that an
// epoch's workers block in it between takes, a round that started while
// takes were still pending parked a unit whose old entry was still
// resident, was refused as a duplicate, and left the next epoch one unit
// short (about one warm epoch in fifty here). The round now starts after
// the workers' last take.
func TestWarmEpochsNeverTouchTheWire(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(400, 3000)
	fs, err := Mount(addrs, ds, Config{ChunkSize: 8 << 10, CacheBytes: 64 << 10, CrossEpochPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	for seed := int64(1); seed <= 300; seed++ {
		before := fs.Pipeline().WireReads.Load()
		ep, err := fs.Sequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		if n := drainAndVerify(t, ep, ds); n != ds.Len() {
			t.Fatalf("epoch %d delivered %d of %d", seed, n, ds.Len())
		}
		if n := fs.Pipeline().WireReads.Load() - before; n > 0 && seed > 1 {
			t.Fatalf("warm epoch %d issued %d wire reads", seed, n)
		}
		fs.WaitPrefetch()
	}
}

// TestPrefetchRoundHoldsBudget: a round's four workers park concurrently
// under a budget smaller than the epoch. The round is cut to the budget
// before anything is dispatched, so the store never exceeds it, nothing
// the round parked is evicted, and what the store could not hold is
// fetched by the next epoch as usual.
func TestPrefetchRoundHoldsBudget(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(400, 3000) // 1.2 MB an epoch
	const budget = 300 << 10
	fs, err := Mount(addrs, ds, Config{
		ChunkSize:           8 << 10,
		CacheBytes:          1 << 20,
		Prefetchers:         4,
		CrossEpochPrefetch:  true,
		PrefetchBudgetBytes: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	stop := make(chan struct{})
	var over int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // watches the store while the rounds run
		defer wg.Done()
		for {
			if rb := fs.prefetch.residentBytes(); rb > over {
				over = rb
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	for seed := int64(1); seed <= 3; seed++ {
		ep, err := fs.Sequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		if n := drainAndVerify(t, ep, ds); n != ds.Len() {
			t.Fatalf("epoch %d delivered %d of %d", seed, n, ds.Len())
		}
		fs.WaitPrefetch()
		if rb := fs.prefetch.residentBytes(); rb > budget || rb < budget-8<<10 {
			t.Fatalf("after round %d the store holds %d bytes, want the budget %d less at most one unit", seed, rb, budget)
		}
	}
	close(stop)
	wg.Wait()
	if over > budget {
		t.Fatalf("store peaked at %d bytes, budget %d", over, budget)
	}
	pl := fs.Pipeline().Snapshot()
	if pl.PrefetchEvictions != 0 {
		t.Fatalf("%d evictions: a round evicted lookahead entries", pl.PrefetchEvictions)
	}
	if rb := fs.prefetch.residentBytes(); pl.PrefetchHitBytes != pl.PrefetchedBytes-rb {
		t.Fatalf("parked %d bytes, epochs hit %d and %d wait for the next: some were lost",
			pl.PrefetchedBytes, pl.PrefetchHitBytes, rb)
	}
}

// TestCloseMidRound: Close while a lookahead round's workers have
// commands in flight returns within a command completion and leaves no
// goroutine of the mount behind.
func TestCloseMidRound(t *testing.T) {
	// 16 MB/s a target: the 3.2 MB round takes ~100 ms, long enough to
	// close in the middle of.
	addrs, _ := startChaosTargets(t, 2, func(i int) chaos.Config {
		return chaos.Config{Seed: int64(i) + 70, ThrottleBytesPerSec: 16 << 20}
	})
	ds := testDS(400, 8<<10)
	before := mountGoroutines()
	fs, err := Mount(addrs, ds, Config{ChunkSize: 32 << 10, CrossEpochPrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := fs.Sequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if n := drainAndVerify(t, ep, ds); n != ds.Len() {
		t.Fatalf("delivered %d of %d", n, ds.Len())
	}
	for fs.Pipeline().PrefetchedUnits.Load() == 0 {
		if !fs.prefetchBusy.Load() {
			t.Fatal("the round ended before it parked anything")
		}
		time.Sleep(time.Millisecond)
	}
	if !fs.prefetchBusy.Load() {
		t.Skip("the round finished before Close could interrupt it")
	}
	start := time.Now()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with a round in flight", d)
	}
	if parked := fs.Pipeline().PrefetchedBytes.Load(); parked >= datasetBytes(ds) {
		t.Fatalf("the round ran to its end (%d bytes): Close did not interrupt it", parked)
	}
	// A queue pair's receive loop ends when it sees its closed socket,
	// a moment after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for mountGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d client goroutines before Mount, %d after Close", before, mountGoroutines())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mountGoroutines counts the goroutines a mount owns: the epoch's and the
// round's engine (live.(*FS), live.(*Epoch)), the upload engine's workers
// and the queue pairs' receive loops. Targets and chaos proxies run in this process too and keep
// per-connection goroutines of their own, so a plain count will not do.
func mountGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "live.(*FS).") || strings.Contains(g, "live.(*Epoch).") ||
			strings.Contains(g, "live.(*bulkWriter).") || strings.Contains(g, "nvmetcp.(*Initiator).") {
			n++
		}
	}
	return n
}

// TestPrefetchDisabledByNegativeBudget: the canonical -1 budget turns
// the feature off even with CrossEpochPrefetch set.
func TestPrefetchDisabledByNegativeBudget(t *testing.T) {
	addrs := startTargets(t, 1)
	ds := testDS(20, 1000)
	fs, err := Mount(addrs, ds, Config{CrossEpochPrefetch: true, PrefetchBudgetBytes: -7})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	if fs.prefetch != nil {
		t.Fatal("negative budget must disable the lookahead store")
	}
	ep, err := fs.Sequence(1)
	if err != nil {
		t.Fatal(err)
	}
	drainAndVerify(t, ep, ds)
	fs.WaitPrefetch()
	if got := fs.Pipeline().Snapshot().PrefetchedUnits; got != 0 {
		t.Fatalf("prefetched %d units with the store disabled", got)
	}
}

// TestPrefetchStoreBudget exercises the store in isolation: FIFO
// eviction under pressure, consume-once take semantics, and the
// resident-bytes invariant.
func TestPrefetchStoreBudget(t *testing.T) {
	pipe := &metrics.Pipeline{}
	var freed int
	s := newPrefetchStore(100, pipe, func(b []byte) { freed += len(b) })

	k := func(i int) unitKey { return unitKey{node: 0, offset: int64(i * 100), length: 40} }
	s.put(k(1), pfEntry{data: make([]byte, 40)})
	s.put(k(2), pfEntry{data: make([]byte, 40)})
	if got := s.residentBytes(); got != 80 {
		t.Fatalf("resident %d, want 80", got)
	}
	// Third insert exceeds the budget: the oldest entry is evicted.
	s.put(k(3), pfEntry{data: make([]byte, 40)})
	if got := s.residentBytes(); got != 80 {
		t.Fatalf("resident %d after eviction, want 80", got)
	}
	if pipe.PrefetchEvictions.Load() != 1 || freed != 40 {
		t.Fatalf("evictions=%d freed=%d", pipe.PrefetchEvictions.Load(), freed)
	}
	if _, ok := s.take(k(1)); ok {
		t.Fatal("evicted entry still resident")
	}
	// take consumes: the second take misses, and the bytes are released
	// from the budget.
	if _, ok := s.take(k(2)); !ok {
		t.Fatal("entry 2 missing")
	}
	if _, ok := s.take(k(2)); ok {
		t.Fatal("take must consume the entry")
	}
	if got := s.residentBytes(); got != 40 {
		t.Fatalf("resident %d after takes, want 40", got)
	}
	// A duplicate put keeps the original and frees the newcomer.
	freed = 0
	s.put(k(3), pfEntry{data: make([]byte, 40)})
	if freed != 40 {
		t.Fatal("duplicate put must free the new buffer")
	}
	// An entry larger than the whole budget is refused outright.
	freed = 0
	s.put(unitKey{node: 9}, pfEntry{data: make([]byte, 200)})
	if freed != 200 {
		t.Fatal("over-budget put must free the buffer")
	}
	s.drain()
	if got := s.residentBytes(); got != 0 {
		t.Fatalf("resident %d after drain", got)
	}
}

// TestPrefetchStoreRoundEvictsLeftovers: what a round parked and its
// epoch never took must not pin the budget. A round begins after its
// epoch's last take, so beginRound evicts whatever is resident and the
// new round gets the whole budget.
func TestPrefetchStoreRoundEvictsLeftovers(t *testing.T) {
	pipe := &metrics.Pipeline{}
	var freed int
	s := newPrefetchStore(100, pipe, func(b []byte) { freed += len(b) })
	k := func(i int) unitKey { return unitKey{node: 0, offset: int64(i * 100), length: 30} }

	s.beginRound()
	s.put(k(1), pfEntry{data: make([]byte, 30)})
	s.put(k(2), pfEntry{data: make([]byte, 30)})
	s.take(k(1)) // the epoch took one; k(2) was mispredicted

	if room := s.beginRound(); room != 100 {
		t.Fatalf("the next round gets %d bytes, want the whole budget", room)
	}
	if _, ok := s.take(k(2)); ok || s.residentBytes() != 0 || freed != 30 {
		t.Fatalf("leftover survived the round: resident %d, freed %d", s.residentBytes(), freed)
	}
	if n := pipe.PrefetchEvictions.Load(); n != 1 {
		t.Fatalf("%d evictions, want 1 (a taken entry is not one)", n)
	}
}

// TestPoolHitRateWarmEpoch is the BENCH_5 pool_hit_rate:0 regression
// test: a consumer that recycles its batches must see a nonzero pool
// hit rate on the next epoch, and Stats must surface it in the
// pipeline snapshot (the bench reads exactly that field).
func TestPoolHitRateWarmEpoch(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(60, 2000)
	fs, err := Mount(addrs, ds, Config{ChunkSize: 8 << 10, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	for _, seed := range []int64{1, 2} {
		ep, err := fs.Sequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		for {
			items, ok, err := ep.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
					t.Fatalf("sample %d corrupt", it.Index)
				}
			}
			fs.RecycleItems(items)
			if !ok {
				break
			}
		}
	}
	pl := fs.Stats().Pipeline
	if pl.PoolHits == 0 {
		t.Fatalf("warm epoch reports zero pool hits: %+v", pl)
	}
	if rate := pl.PoolHitRate(); rate <= 0 {
		t.Fatalf("pool hit rate %f, want > 0", rate)
	}
}
