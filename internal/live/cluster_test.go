package live

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dlfs/internal/coord"
	"dlfs/internal/dataset"
	"dlfs/internal/nvmetcp"
)

// startCoord stands up the coordinator of a world-rank job: a replica
// set of one.
func startCoord(t *testing.T, world int) []string {
	t.Helper()
	_, peers := startReplicaSet(t, 1, world)
	return peers
}

// TestClusterMountThreeRanks is the multi-node acceptance test: three
// ranks mount through a one-replica coordinator, each uploading and
// indexing only its shard; after the allgather every rank must hold an
// identical full directory, and the per-rank epoch slices must together
// consume every sample exactly once with content matching the
// single-node epoch.
func TestClusterMountThreeRanks(t *testing.T) {
	const world = 3
	tgts, addrs := startTargetObjs(t, world, 256<<20, nvmetcp.Config{Depth: 32})
	peers := startCoord(t, world)
	ds := testDS(240, 3000)
	cfg := Config{ChunkSize: 16 << 10, CacheBytes: 2 << 20}
	fss := mountClusterPeers(t, peers, addrs, ds, cfg)

	// Every shard was uploaded once, by its own rank: what the ranks say
	// they wrote and what the targets took in are both the dataset.
	var uploaded, served int64
	for r, fs := range fss {
		uploaded += fs.MountStats().UploadBytes
		_, b := tgts[r].Served()
		served += b
	}
	if uploaded != ds.TotalBytes() || served != ds.TotalBytes() {
		t.Fatalf("ranks uploaded %d bytes, targets took in %d, dataset is %d", uploaded, served, ds.TotalBytes())
	}

	// Identical replicas on every rank.
	fp := fss[0].Directory().Fingerprint()
	for r, fs := range fss {
		if fs.Directory().NumSamples() != ds.Len() {
			t.Fatalf("rank %d directory has %d samples", r, fs.Directory().NumSamples())
		}
		if got := fs.Directory().Fingerprint(); got != fp {
			t.Fatalf("rank %d fingerprint %#x != rank 0 %#x", r, got, fp)
		}
		if fs.Rank() != r || fs.World() != world {
			t.Fatalf("rank %d reports %d/%d", r, fs.Rank(), fs.World())
		}
	}

	// Each rank indexed only its shard, and the shards sum to the whole.
	local := int64(0)
	for r, fs := range fss {
		ms := fs.MountStats()
		if ms.LocalEntries <= 0 || ms.LocalEntries >= int64(ds.Len()) {
			t.Fatalf("rank %d indexed %d entries", r, ms.LocalEntries)
		}
		if ms.TotalEntries != int64(ds.Len()) {
			t.Fatalf("rank %d assembled %d entries", r, ms.TotalEntries)
		}
		if ms.BlobBytesOut != ms.LocalEntries*16 {
			t.Fatalf("rank %d blob bytes %d for %d entries", r, ms.BlobBytesOut, ms.LocalEntries)
		}
		if ms.Barriers != 2 {
			t.Fatalf("rank %d completed %d barriers", r, ms.Barriers)
		}
		local += ms.LocalEntries
	}
	if local != int64(ds.Len()) {
		t.Fatalf("shards sum to %d of %d entries", local, ds.Len())
	}

	// Per-rank slices of one seeded epoch: disjoint, exactly-once, and
	// their union matches the full single-node epoch (same seed) by
	// checksum.
	const seed = 99
	type res struct {
		counts map[int]int
		sums   map[int]uint32
		err    error
		total  int
	}
	results := make([]res, world)
	var wg sync.WaitGroup
	for r, fs := range fss {
		wg.Add(1)
		go func(r int, fs *FS) {
			defer wg.Done()
			ep, err := fs.ClusterSequence(seed)
			if err != nil {
				results[r].err = err
				return
			}
			results[r].total = ep.Total()
			items, err := ep.Drain()
			if err != nil {
				results[r].err = err
				return
			}
			counts := make(map[int]int)
			sums := make(map[int]uint32)
			for _, it := range items {
				counts[it.Index]++
				sums[it.Index] = dataset.ChecksumBytes(it.Data)
			}
			results[r].counts, results[r].sums = counts, sums
		}(r, fs)
	}
	wg.Wait()

	union := make(map[int]int)
	for r := range results {
		if results[r].err != nil {
			t.Fatalf("rank %d epoch: %v", r, results[r].err)
		}
		if len(results[r].counts) == 0 {
			t.Fatalf("rank %d delivered nothing", r)
		}
		if got := 0; true {
			for _, c := range results[r].counts {
				got += c
			}
			if got != results[r].total {
				t.Fatalf("rank %d delivered %d of planned %d", r, got, results[r].total)
			}
		}
		for idx, c := range results[r].counts {
			union[idx] += c
			if sum := results[r].sums[idx]; sum != ds.Checksum(idx) {
				t.Fatalf("rank %d sample %d corrupt", r, idx)
			}
		}
	}
	if len(union) != ds.Len() {
		t.Fatalf("union covers %d of %d samples", len(union), ds.Len())
	}
	for idx, c := range union {
		if c != 1 {
			t.Fatalf("sample %d delivered %d times across ranks", idx, c)
		}
	}
}

// TestSequenceSliceMatchesFullEpoch checks the slice algebra on a
// single-node mount: the union of world slices equals the full epoch's
// sample set, and slices are pairwise disjoint.
func TestSequenceSliceMatchesFullEpoch(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(150, 2500)
	fs, err := Mount(addrs, ds, Config{ChunkSize: 8 << 10, CacheBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	const seed, world = 7, 3
	seen := make(map[int]int)
	totals := 0
	for r := 0; r < world; r++ {
		ep, err := fs.SequenceSlice(seed, r, world)
		if err != nil {
			t.Fatal(err)
		}
		totals += ep.Total()
		items, err := ep.Drain()
		if err != nil {
			t.Fatal(err)
		}
		fs.RecycleItems(items)
		for _, it := range items {
			seen[it.Index]++
		}
	}
	if totals != ds.Len() {
		t.Fatalf("slice totals sum to %d of %d", totals, ds.Len())
	}
	if len(seen) != ds.Len() {
		t.Fatalf("slices cover %d of %d samples", len(seen), ds.Len())
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d appears %d times", idx, c)
		}
	}
	if _, err := fs.SequenceSlice(seed, 3, 3); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := fs.SequenceSlice(seed, 0, 0); err == nil {
		t.Fatal("zero world accepted")
	}
}

// TestClusterMountWorldMismatch checks argument validation.
func TestClusterMountWorldMismatch(t *testing.T) {
	addrs := startTargets(t, 2)
	peers := startCoord(t, 3)
	ds := testDS(10, 512)
	if _, err := MountClusterPeers(peers, 0, 3, addrs, ds, Config{}); err == nil {
		t.Fatal("world/targets mismatch accepted")
	}
	if _, err := MountClusterPeers(peers, 2, 2, addrs, ds, Config{}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
}

// TestClusterMountPeerClosesEarly: a rank that joins the coordinator
// and then disappears before contributing its partition must not wedge
// the surviving ranks — they get a typed peer-lost error quickly.
func TestClusterMountPeerClosesEarly(t *testing.T) {
	const world = 3
	addrs := startTargets(t, world)
	peers := startCoord(t, world)
	ds := testDS(60, 1000)
	cfg := Config{CoordWaitTimeout: 10 * time.Second}

	// Rank 2 joins and immediately leaves while ranks 0 and 1 are inside
	// the mount-start barrier.
	ghost, err := coord.JoinCluster(peers, 2, world, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var fs *FS
			fs, errs[r] = MountClusterPeers(peers, r, world, addrs, ds, cfg)
			if fs != nil {
				fs.Close() //nolint:errcheck
			}
		}(r)
	}
	time.Sleep(100 * time.Millisecond)
	ghost.Close() //nolint:errcheck

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("survivors wedged after peer departure")
	}
	for r := 0; r < 2; r++ {
		if !errors.Is(errs[r], coord.ErrPeerLost) {
			t.Fatalf("rank %d: want peer-lost, got %v", r, errs[r])
		}
	}
}
