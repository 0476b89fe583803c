package live

import (
	"testing"
	"time"

	"dlfs/internal/dataset"
)

// readAllVerify reads every sample through ReadSample and checksums it.
func readAllVerify(t *testing.T, fs *FS, ds *dataset.Dataset) {
	t.Helper()
	for i := 0; i < ds.Len(); i++ {
		got, err := fs.ReadSample(i)
		if err != nil {
			t.Fatalf("rank %d sample %d: %v", fs.Rank(), i, err)
		}
		if dataset.ChecksumBytes(got) != ds.Checksum(i) {
			t.Fatalf("rank %d sample %d corrupt", fs.Rank(), i)
		}
		fs.Recycle(got)
	}
}

// TestClusterPeerCacheOncePerCluster is the FanStore acceptance test:
// with the cooperative cache on, every rank reads the full dataset
// through ReadSample, yet each sample crosses the storage-target wire
// exactly once cluster-wide — the owner pulls it, everyone else fetches
// it from the owner's cache over the peer fabric.
func TestClusterPeerCacheOncePerCluster(t *testing.T) {
	const world = 3
	addrs := startTargets(t, world)
	peers := startCoord(t, world)
	ds := testDS(90, 2000)
	cfg := Config{
		ChunkSize:      8 << 10,
		CacheBytes:     1 << 20,
		ReadCacheBytes: 32 << 20, // hold the whole dataset: no evictions
		PeerCache:      true,
	}
	fss := mountClusterPeers(t, peers, addrs, ds, cfg)

	var total int64
	for i := 0; i < ds.Len(); i++ {
		total += int64(len(ds.Content(i)))
	}

	for _, fs := range fss {
		if fs.Stats().PeerAddr == "" {
			t.Fatalf("rank %d has no peer service address", fs.Rank())
		}
		readAllVerify(t, fs, ds)
	}

	var originBytes, peerHits, peerServed, fallbacks int64
	for _, fs := range fss {
		pl := fs.Stats().Pipeline
		originBytes += pl.OriginBytes
		peerHits += pl.PeerHits
		peerServed += pl.PeerServed
		fallbacks += pl.PeerFallbacks
	}
	if fallbacks != 0 {
		t.Fatalf("healthy cluster recorded %d peer fallbacks", fallbacks)
	}
	// Once per cluster: total origin traffic equals the dataset size, not
	// world× it.
	if originBytes != total {
		t.Fatalf("origin bytes %d, want exactly %d (once per cluster; %d would be once per rank)",
			originBytes, total, total*int64(world))
	}
	// Every non-owned first read was served by a peer.
	wantPeer := int64(ds.Len() * (world - 1))
	if peerHits != wantPeer || peerServed != wantPeer {
		t.Fatalf("peer hits=%d served=%d, want %d", peerHits, peerServed, wantPeer)
	}
	// Per-rank origin traffic shrank to ~1/world of the dataset (exactly
	// its owned shard).
	for _, fs := range fss {
		pl := fs.Stats().Pipeline
		if pl.OriginBytes >= total {
			t.Fatalf("rank %d origin bytes %d did not shrink below the dataset size %d",
				fs.Rank(), pl.OriginBytes, total)
		}
	}
}

// TestChaosPeerKilledMidFetch kills the owning peer midway through a
// stream of remote reads: every read after the kill must still succeed
// from the origin target, typed fallbacks must be counted, and the
// whole degraded stretch must finish within a small multiple of
// PeerFetchTimeout — a dead peer degrades, never stalls.
func TestChaosPeerKilledMidFetch(t *testing.T) {
	const world = 2
	addrs := startTargets(t, world)
	peers := startCoord(t, world)
	ds := testDS(60, 1500)
	cfg := Config{
		ChunkSize:        8 << 10,
		CacheBytes:       1 << 20,
		ReadCacheBytes:   -1, // no local cache: every read exercises the miss path
		PeerCache:        true,
		PeerFetchTimeout: 300 * time.Millisecond,
	}
	fss := mountClusterPeers(t, peers, addrs, ds, cfg)
	reader, victim := fss[0], fss[1]

	// Samples owned by the victim rank, as seen from the reader.
	var remote []int
	for i := 0; i < ds.Len(); i++ {
		if int(reader.nodeOf[i]) == victim.Rank() {
			remote = append(remote, i)
		}
	}
	if len(remote) < 8 {
		t.Fatalf("only %d victim-owned samples", len(remote))
	}

	// Warm stretch: the victim serves its samples over the peer fabric.
	for _, i := range remote[:4] {
		buf, err := reader.ReadSample(i)
		if err != nil {
			t.Fatal(err)
		}
		reader.Recycle(buf)
	}
	if hits := reader.Stats().Pipeline.PeerHits; hits != 4 {
		t.Fatalf("warm stretch peer hits %d, want 4", hits)
	}

	// Kill the peer service mid-stream (the victim's targets stay up —
	// it is the cache peer that dies, not the storage node).
	victim.peers.close()

	start := time.Now()
	for _, i := range remote[4:] {
		buf, err := reader.ReadSample(i)
		if err != nil {
			t.Fatalf("read after peer death: %v", err)
		}
		if dataset.ChecksumBytes(buf) != ds.Checksum(i) {
			t.Fatalf("sample %d corrupt after fallback", i)
		}
		reader.Recycle(buf)
	}
	elapsed := time.Since(start)

	pl := reader.Stats().Pipeline
	if pl.PeerFallbacks != int64(len(remote)-4) {
		t.Fatalf("fallbacks %d, want %d", pl.PeerFallbacks, len(remote)-4)
	}
	if pl.OriginReads < pl.PeerFallbacks {
		t.Fatalf("origin reads %d < fallbacks %d: fallbacks must hit origin", pl.OriginReads, pl.PeerFallbacks)
	}
	// Each fallback is bounded by one dial deadline; allow generous
	// headroom for slow CI, but far below "stalled".
	if budget := time.Duration(len(remote)) * 4 * cfg.PeerFetchTimeout; elapsed > budget {
		t.Fatalf("degraded stretch took %v (budget %v)", elapsed, budget)
	}
}

// TestClusterPeerCacheOffByDefault: without the knob no peer service is
// hosted and reads go straight to origin.
func TestClusterPeerCacheOffByDefault(t *testing.T) {
	const world = 2
	addrs := startTargets(t, world)
	peers := startCoord(t, world)
	ds := testDS(30, 1000)
	fss := mountClusterPeers(t, peers, addrs, ds, Config{})
	for _, fs := range fss {
		if fs.peers != nil || fs.Stats().PeerAddr != "" {
			t.Fatalf("rank %d hosts a peer service without PeerCache", fs.Rank())
		}
	}
	readAllVerify(t, fss[0], ds)
	pl := fss[0].Stats().Pipeline
	if pl.PeerHits != 0 || pl.PeerFallbacks != 0 {
		t.Fatalf("peer counters moved with the cache off: %+v", pl)
	}
	if pl.OriginReads != int64(ds.Len()) {
		t.Fatalf("origin reads %d, want %d", pl.OriginReads, ds.Len())
	}
}
