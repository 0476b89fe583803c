package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dlfs/internal/coord"
	"dlfs/internal/dataset"
	"dlfs/internal/directory"
	"dlfs/internal/metrics"
)

// ErrFingerprintMismatch marks a multi-node mount whose assembled
// directory replicas disagree after the allgather. Match with errors.Is;
// the concrete error is a *FingerprintError.
var ErrFingerprintMismatch = errors.New("live: directory fingerprint mismatch across ranks")

// FingerprintError identifies which peer's replica diverged.
type FingerprintError struct {
	Rank   int    // the local rank
	Local  uint64 // this rank's assembled fingerprint
	Peer   int    // first disagreeing peer
	Remote uint64 // that peer's fingerprint
}

func (e *FingerprintError) Error() string {
	return fmt.Sprintf("live: rank %d assembled directory %#x but rank %d has %#x",
		e.Rank, e.Local, e.Peer, e.Remote)
}

// Unwrap lets errors.Is(err, ErrFingerprintMismatch) match.
func (e *FingerprintError) Unwrap() error { return ErrFingerprintMismatch }

// Collective names used by the mount protocol; epochs use
// epochGatherPrefix + seed so repeated mounts over one coordinator never
// collide.
const (
	gatherDirectory   = "dlfs/mount/dir"
	gatherFingerprint = "dlfs/mount/fp"
	gatherPeers       = "dlfs/mount/peers"
	barrierMountStart = "dlfs/mount/start"
	barrierMountDone  = "dlfs/mount/done"
)

// MountClusterPeers is the live multi-node dlfs_mount (paper §III-B2):
// rank joins the coordinator replica set listed in peers (one address
// for a single coordinator), uploads only its hash-shard of the dataset
// to its own target (addrs[rank]), builds the home-node directory
// partition, and exchanges serialized partitions with the other world-1
// ranks through a TCP allgather. Every rank then assembles the full
// replicated directory with directory.FromBlobs and asserts — via a
// second allgather of the 64-bit fingerprints — that all replicas are
// identical. world must equal len(addrs): one exported target per rank.
//
// The returned FS reads from all targets like a single-node Mount, and
// additionally answers ClusterSequence with this rank's disjoint slice
// of the seeded global epoch order. The client discovers the Raft leader
// via redirects, and a leader dying mid-mount is survived by
// re-resolving with backoff and resubmitting the interrupted collective.
// A peer dying mid-mount surfaces as an error matching coord.ErrPeerLost
// on every survivor once it has stayed away for the coordinator's
// RankGrace; an unreachable coordinator as coord.ErrNoLeader after the
// client's ResolveTimeout; replica divergence as ErrFingerprintMismatch.
func MountClusterPeers(peers []string, rank, world int, addrs []string, ds *dataset.Dataset, cfg Config) (*FS, error) {
	cfg = cfg.withDefaults()
	if world != len(addrs) {
		return nil, fmt.Errorf("live: world %d but %d targets (one target per rank)", world, len(addrs))
	}
	if rank < 0 || rank >= world {
		return nil, fmt.Errorf("live: rank %d out of range for world %d", rank, world)
	}
	cl, err := coord.JoinCluster(peers, rank, world, coord.Options{
		DialTimeout: cfg.DialTimeout,
		WaitTimeout: cfg.CoordWaitTimeout,
	})
	if err != nil {
		return nil, fmt.Errorf("live: coordinator: %w", err)
	}
	fs, err := open(addrs, ds, cfg)
	if err != nil {
		cl.Close() //nolint:errcheck
		return nil, err
	}
	fs.rank, fs.world, fs.coord, fs.mstats = rank, world, cl, &metrics.Mount{}
	if cfg.StageHistograms {
		fs.mstats.Hist = &metrics.MountHist{}
	}
	if err := fs.mountCluster(); err != nil {
		fs.Close() //nolint:errcheck
		return nil, err
	}
	return fs, nil
}

// mountCluster is one rank's side of the multi-node dlfs_mount.
func (fs *FS) mountCluster() error {
	cl, rank, ds, mm := fs.coord, fs.rank, fs.ds, fs.mstats
	if err := timedBarrier(cl, barrierMountStart, mm); err != nil {
		return fmt.Errorf("live: mount barrier: %w", err)
	}

	// Index phase. Every rank computes the full deterministic placement
	// (home node and offset of every sample) but uploads and indexes only
	// its own shard — the paper's "each node builds the AVL tree for the
	// samples it stored".
	istart := time.Now()
	parts, err := fs.load(rank)
	if err != nil {
		return err
	}
	part := parts[rank]
	mm.UploadBytes.Add(fs.shardLen[rank])
	mm.LocalEntries.Store(int64(part.Len()))
	mm.ObserveIndex(time.Since(istart))

	// Serialize + allgather + assemble: the §III-B2 directory exchange,
	// over real sockets instead of the simulated fabric.
	sstart := time.Now()
	blob := part.Serialize()
	mm.BlobBytesOut.Store(int64(len(blob)))
	mm.ObserveSerialize(time.Since(sstart))

	gstart := time.Now()
	blobs, err := cl.Allgather(gatherDirectory, blob)
	if err != nil {
		return fmt.Errorf("live: directory allgather: %w", err)
	}
	mm.ObserveAllgather(time.Since(gstart))
	for r, b := range blobs {
		if r != rank {
			mm.BlobBytesIn.Add(int64(len(b)))
		}
	}

	astart := time.Now()
	dir, err := directory.FromBlobs(blobs)
	if err != nil {
		return fmt.Errorf("live: assembling directory: %w", err)
	}
	if dir.NumSamples() != ds.Len() {
		return fmt.Errorf("live: assembled directory has %d entries, dataset has %d", dir.NumSamples(), ds.Len())
	}
	// Cross-check the replicated entries against the local deterministic
	// placement: every sample must resolve to the offset this rank
	// computed, or a peer indexed a different dataset.
	for i := 0; i < ds.Len(); i++ {
		e, _, _, ok := dir.Lookup(fs.keys[i])
		if !ok || e.NID() != fs.nodeOf[i] || e.Offset() != fs.placed[i].Offset || e.Len() != fs.placed[i].Len {
			return fmt.Errorf("live: replicated entry for sample %d disagrees with local placement", i)
		}
	}
	fs.dir = dir
	mm.TotalEntries.Store(int64(dir.NumSamples()))
	mm.ObserveAssemble(time.Since(astart))

	// Fingerprint assertion: every rank's assembled replica must hash
	// identically. The exchange reuses the allgather, so the check also
	// covers blob corruption that FromBlobs cannot see.
	fp := dir.Fingerprint()
	var fpw [8]byte
	binary.LittleEndian.PutUint64(fpw[:], fp)
	fps, err := cl.Allgather(gatherFingerprint, fpw[:])
	if err != nil {
		return fmt.Errorf("live: fingerprint allgather: %w", err)
	}
	for r, b := range fps {
		if len(b) != 8 {
			return fmt.Errorf("live: rank %d sent a %d-byte fingerprint", r, len(b))
		}
		if got := binary.LittleEndian.Uint64(b); got != fp {
			return &FingerprintError{Rank: rank, Local: fp, Peer: r, Remote: got}
		}
	}
	if err := timedBarrier(cl, barrierMountDone, mm); err != nil {
		return fmt.Errorf("live: mount barrier: %w", err)
	}
	if err := fs.finishSetup(); err != nil {
		return err
	}
	// Cooperative peer cache: host this rank's sample service and learn
	// every peer's address through one more allgather. PeerCache must be
	// set identically on all ranks or the collective wedges until the
	// coordinator wait timeout.
	if fs.cfg.PeerCache && fs.world > 1 {
		if err := fs.startPeerCache(cl); err != nil {
			return fmt.Errorf("live: peer cache: %w", err)
		}
	}
	return nil
}

// timedBarrier runs one coordinator barrier, accounting the wait.
func timedBarrier(cl *coord.ClusterClient, name string, mm *metrics.Mount) error {
	start := time.Now()
	if err := cl.Barrier(name); err != nil {
		return err
	}
	mm.ObserveBarrier(time.Since(start))
	return nil
}

// Rank reports this client's rank (0 for a single-node Mount).
func (fs *FS) Rank() int { return fs.rank }

// World reports the job size (1 for a single-node Mount).
func (fs *FS) World() int { return fs.world }

// Coordinator exposes the control-plane client of a cluster mount (nil
// for a single-node Mount), for job-level barriers between epochs.
func (fs *FS) Coordinator() *coord.ClusterClient { return fs.coord }

// MountStats reports the mount phase counters. Single-node mounts
// return a zero snapshot.
func (fs *FS) MountStats() metrics.MountSnapshot {
	if fs.mstats == nil {
		return metrics.MountSnapshot{}
	}
	return fs.mstats.Snapshot()
}

// ClusterSequence starts this rank's slice of the seeded global epoch:
// every rank builds the identical shuffled unit order from the shared
// seed (the frontend batching insight of §III-D1 — the access sequence
// is known in advance), then consumes only the units congruent to its
// rank, so the job covers each sample exactly once with no coordination
// traffic during the epoch.
func (fs *FS) ClusterSequence(seed int64) (*Epoch, error) {
	return fs.SequenceSlice(seed, fs.rank, fs.world)
}

// SequenceSlice starts rank's 1/world slice of the seeded epoch order.
// Slices for the same seed are disjoint and their union over all ranks
// is exactly the full dataset. rank/world need not match the mount's
// own cluster shape (a single-node FS can dry-run any slice).
func (fs *FS) SequenceSlice(seed int64, rank, world int) (*Epoch, error) {
	if world <= 0 || rank < 0 || rank >= world {
		return nil, fmt.Errorf("live: bad sequence slice %d/%d", rank, world)
	}
	return fs.sequenceRange(seed, rank, world, 0, -1)
}

// EpochUnits reports how many fetch units one epoch's global order
// contains — the granularity at which a mid-epoch cut (SequenceRange,
// ReshardSequence) can be placed. The count depends only on the
// deterministic placement, never on the seed.
func (fs *FS) EpochUnits() (int, error) {
	if fs.closed.Load() {
		return 0, ErrClosed
	}
	return len(fs.unitPlan), nil
}

// SequenceRange starts rank's 1/world slice of the units [lo, hi) of the
// seeded global order (hi < 0 means the end). Assignment is
// cut-relative: within the range, unit i goes to the rank with
// (i-lo) ≡ rank (mod world). That is exactly the resharding rule of
// DESIGN.md §13: the prefix [0, cut) was consumed under the old
// membership's assignment, the suffix [cut, M) is repartitioned among
// the survivors, and the union still covers every unit exactly once.
func (fs *FS) SequenceRange(seed int64, rank, world, lo, hi int) (*Epoch, error) {
	if world <= 0 || rank < 0 || rank >= world {
		return nil, fmt.Errorf("live: bad sequence slice %d/%d", rank, world)
	}
	if lo < 0 {
		return nil, fmt.Errorf("live: negative sequence cut %d", lo)
	}
	return fs.sequenceRange(seed, rank, world, lo, hi)
}

// ReshardSequence resumes the epoch after an elastic membership change:
// it asks the coordinator for the post-change membership, recomputes
// this rank's position among the sorted survivors, and consumes its
// share of the unconsumed suffix [cut, M) of the seeded global order.
// The mount must be a cluster mount; cut is the unit index the job
// agreed to stop the old assignment at (normally
// ClusterStatus.DepartCut).
func (fs *FS) ReshardSequence(seed int64, cut int) (*Epoch, error) {
	if fs.coord == nil {
		return nil, errors.New("live: ReshardSequence needs a cluster mount (MountClusterPeers)")
	}
	st, err := fs.coord.Status()
	if err != nil {
		return nil, fmt.Errorf("live: reshard status: %w", err)
	}
	if st.Failed != "" {
		return nil, fmt.Errorf("live: reshard: job poisoned: %s", st.Failed)
	}
	newRank := -1
	for i, r := range st.Members {
		if r == fs.rank {
			newRank = i
			break
		}
	}
	if newRank < 0 {
		return nil, fmt.Errorf("live: rank %d is no longer a member (members %v)", fs.rank, st.Members)
	}
	if cut < 0 {
		cut = int(st.DepartCut)
	}
	return fs.sequenceRange(seed, newRank, len(st.Members), cut, -1)
}
