package live

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dlfs/internal/chaos"
	"dlfs/internal/coord"
	"dlfs/internal/dataset"
)

// startReplicaSet stands up n coordinator replicas with fast elections.
func startReplicaSet(t *testing.T, n, world int) ([]*coord.ReplicatedServer, []string) {
	t.Helper()
	srvs, peers, err := coord.StartReplicaSet(n, world, coord.ReplicatedOptions{
		ElectionTimeout: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close() //nolint:errcheck
		}
	})
	return srvs, peers
}

// waitReplicaLeader polls until one replica reports itself leader.
func waitReplicaLeader(t *testing.T, srvs []*coord.ReplicatedServer) *coord.ReplicatedServer {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range srvs {
			if l, _ := s.Leader(); l == s.Addr() {
				return s
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("replica set never elected a leader")
	return nil
}

// mountClusterPeers mounts every rank concurrently against a replica set.
func mountClusterPeers(t *testing.T, peers, addrs []string, ds *dataset.Dataset, cfg Config) []*FS {
	t.Helper()
	world := len(addrs)
	fss := make([]*FS, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fss[r], errs[r] = MountClusterPeers(peers, r, world, addrs, ds, cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d mount: %v", r, err)
		}
	}
	for _, fs := range fss {
		fs := fs
		t.Cleanup(func() { fs.Close() }) //nolint:errcheck
	}
	return fss
}

// drainTally drains one epoch into per-sample delivery counts and
// content checksums.
func drainTally(ep *Epoch) (map[int]int, map[int]uint32, error) {
	items, err := ep.Drain()
	if err != nil {
		return nil, nil, err
	}
	counts := make(map[int]int)
	sums := make(map[int]uint32)
	for _, it := range items {
		counts[it.Index]++
		sums[it.Index] = dataset.ChecksumBytes(it.Data)
	}
	return counts, sums, nil
}

// checkExactlyOnce asserts the union of per-rank deliveries covers the
// dataset exactly once with verified content.
func checkExactlyOnce(t *testing.T, ds *dataset.Dataset, counts []map[int]int, sums []map[int]uint32) {
	t.Helper()
	union := make(map[int]int)
	for r := range counts {
		for idx, c := range counts[r] {
			union[idx] += c
			if sums[r][idx] != ds.Checksum(idx) {
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

// TestChaosClusterPeerDiesMidMountBarrier is the mount-barrier rank-death
// case: rank 2's coordinator connection runs through a chaos proxy and is
// hard-killed while ranks 0 and 1 are blocked inside the mount-start
// barrier. The survivors must get a typed *coord.PeerLostError naming
// rank 2 well inside CoordWaitTimeout — once the rank has stayed away
// for the coordinator's RankGrace, not by waiting out the collective.
func TestChaosClusterPeerDiesMidMountBarrier(t *testing.T) {
	const world = 3
	addrs := startTargets(t, world)
	caddr := startCoord(t, world)[0]

	doomed := chaos.NewProxy(caddr, chaos.Config{Seed: 7})
	daddr, err := doomed.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer doomed.Close() //nolint:errcheck

	// Rank 2 joins through the proxy but never reaches the barrier.
	ghost, err := coord.JoinCluster([]string{daddr}, 2, world, coord.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ghost.Close() //nolint:errcheck

	ds := testDS(60, 1000)
	cfg := Config{CoordWaitTimeout: 10 * time.Second}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var fs *FS
			fs, errs[r] = MountClusterPeers([]string{caddr}, r, world, addrs, ds, cfg)
			if fs != nil {
				fs.Close() //nolint:errcheck
			}
		}(r)
	}
	// Let the survivors get into the mount-start barrier, then sever the
	// ghost's connection without an orderly leave.
	time.Sleep(200 * time.Millisecond)
	if doomed.KillActive() == 0 {
		t.Fatal("chaos proxy found no live connection to kill")
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("survivors wedged after mid-barrier rank death")
	}
	elapsed := time.Since(start)
	if elapsed >= cfg.CoordWaitTimeout {
		t.Fatalf("survivors took %v, not inside CoordWaitTimeout %v", elapsed, cfg.CoordWaitTimeout)
	}
	for r := 0; r < 2; r++ {
		var pl *coord.PeerLostError
		if !errors.As(errs[r], &pl) || !errors.Is(errs[r], coord.ErrPeerLost) {
			t.Fatalf("rank %d: want *PeerLostError, got %v", r, errs[r])
		}
		if pl.Rank != 2 {
			t.Fatalf("rank %d blames rank %d, want 2", r, pl.Rank)
		}
	}
}

// TestChaosFailoverLeaderKilledMidEpoch is the failover acceptance case:
// three ranks mount through a 3-replica coordinator set, the Raft leader
// is killed mid-epoch, and the job must elect a new leader, finish the
// epoch, and pass the post-epoch barrier — with every sample delivered
// exactly once and content checksums unchanged.
func TestChaosFailoverLeaderKilledMidEpoch(t *testing.T) {
	const world = 3
	addrs := startTargets(t, world)
	srvs, peers := startReplicaSet(t, 3, world)
	leader := waitReplicaLeader(t, srvs)

	ds := testDS(240, 3000)
	cfg := Config{ChunkSize: 16 << 10, CacheBytes: 2 << 20, CoordWaitTimeout: 30 * time.Second}
	fss := mountClusterPeers(t, peers, addrs, ds, cfg)

	before, err := fss[0].Coordinator().Status()
	if err != nil {
		t.Fatal(err)
	}

	const seed = 17
	counts := make([]map[int]int, world)
	sums := make([]map[int]uint32, world)
	errs := make([]error, world)
	var started, wg sync.WaitGroup
	killed := make(chan struct{})
	started.Add(world)
	for r, fs := range fss {
		wg.Add(1)
		go func(r int, fs *FS) {
			defer wg.Done()
			ep, err := fs.ClusterSequence(seed)
			if err != nil {
				started.Done()
				errs[r] = err
				return
			}
			items, ok, err := ep.NextBatch()
			started.Done()
			if err != nil {
				errs[r] = err
				return
			}
			// Hold mid-epoch until the leader is dead, then finish the
			// epoch and cross the post-epoch barrier through the failover.
			<-killed
			all := append([]Item(nil), items...)
			for ok {
				var batch []Item
				batch, ok, err = ep.NextBatch()
				if err != nil {
					errs[r] = fmt.Errorf("epoch after leader kill: %w", err)
					return
				}
				all = append(all, batch...)
			}
			counts[r] = make(map[int]int)
			sums[r] = make(map[int]uint32)
			for _, it := range all {
				counts[r][it.Index]++
				sums[r][it.Index] = dataset.ChecksumBytes(it.Data)
			}
			errs[r] = fs.Coordinator().Barrier("dlfs/epoch/17/done")
		}(r, fs)
	}
	started.Wait()
	if err := leader.Close(); err != nil {
		t.Fatalf("killing leader: %v", err)
	}
	close(killed)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d across leader failover: %v", r, err)
		}
	}
	checkExactlyOnce(t, ds, counts, sums)

	after, err := fss[0].Coordinator().Status()
	if err != nil {
		t.Fatal(err)
	}
	if after.Leader == "" || after.Leader == leader.Addr() {
		t.Fatalf("leader after failover = %q (dead leader was %q)", after.Leader, leader.Addr())
	}
	if after.Term <= before.Term {
		t.Fatalf("term %d after failover, want above %d", after.Term, before.Term)
	}
}

// TestElasticDepartReshardMidEpoch is the elastic-membership acceptance
// case: three ranks consume the prefix [0, K) of the seeded unit order
// under the old assignment, rank 2 departs at the agreed cut K, and the
// two survivors reshard the unconsumed suffix [K, M) among themselves.
// The union across both phases must still be every sample exactly once.
func TestElasticDepartReshardMidEpoch(t *testing.T) {
	const world = 3
	addrs := startTargets(t, world)
	srvs, peers := startReplicaSet(t, 3, world)
	waitReplicaLeader(t, srvs)

	ds := testDS(240, 3000)
	cfg := Config{ChunkSize: 16 << 10, CacheBytes: 2 << 20, CoordWaitTimeout: 30 * time.Second}
	fss := mountClusterPeers(t, peers, addrs, ds, cfg)

	total, err := fss[0].EpochUnits()
	if err != nil {
		t.Fatal(err)
	}
	if total < world+2 {
		t.Fatalf("epoch has only %d units; dataset too small for a mid-epoch cut", total)
	}
	cut := total / 2

	// Phase 1: all three ranks drain their share of the prefix [0, cut)
	// under the full-world assignment.
	const seed = 41
	counts := make([]map[int]int, 0, world+2)
	sums := make([]map[int]uint32, 0, world+2)
	var mu sync.Mutex
	runPhase := func(fs *FS, rank, w, lo, hi int) error {
		ep, err := fs.SequenceRange(seed, rank, w, lo, hi)
		if err != nil {
			return err
		}
		c, s, err := drainTally(ep)
		if err != nil {
			return err
		}
		mu.Lock()
		counts = append(counts, c)
		sums = append(sums, s)
		mu.Unlock()
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r, fs := range fss {
		wg.Add(1)
		go func(r int, fs *FS) {
			defer wg.Done()
			errs[r] = runPhase(fs, r, world, 0, cut)
		}(r, fs)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d prefix phase: %v", r, err)
		}
	}

	// Rank 2 departs at the agreed cut; the leader replicates the
	// membership change and bumps the placement epoch.
	stBefore, err := fss[0].Coordinator().Status()
	if err != nil {
		t.Fatal(err)
	}
	st, err := fss[2].Coordinator().Depart(uint64(cut))
	if err != nil {
		t.Fatalf("depart: %v", err)
	}
	if st.World != 2 || st.DepartRank != 2 || st.DepartCut != uint64(cut) {
		t.Fatalf("depart status = %+v", st)
	}
	if st.Epoch != stBefore.Epoch+1 {
		t.Fatalf("placement epoch %d after depart, want %d", st.Epoch, stBefore.Epoch+1)
	}
	if len(st.Members) != 2 || st.Members[0] != 0 || st.Members[1] != 1 {
		t.Fatalf("members after depart = %v", st.Members)
	}

	// Phase 2: the survivors reshard the suffix [cut, M) among themselves
	// via the replicated membership view, then cross a two-rank barrier.
	errs = errs[:2]
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int, fs *FS) {
			defer wg.Done()
			ep, err := fs.ReshardSequence(seed, -1) // cut from ClusterStatus.DepartCut
			if err != nil {
				errs[r] = err
				return
			}
			c, s, err := drainTally(ep)
			if err != nil {
				errs[r] = err
				return
			}
			mu.Lock()
			counts = append(counts, c)
			sums = append(sums, s)
			mu.Unlock()
			errs[r] = fs.Coordinator().Barrier("dlfs/reshard/done")
		}(r, fss[r])
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("survivor %d suffix phase: %v", r, err)
		}
	}
	checkExactlyOnce(t, ds, counts, sums)
}
