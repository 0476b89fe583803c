package coord

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The tests in this file run the collective contract against a
// one-replica set: the deployment that stands where the single
// coordinator used to. replicated_test.go covers what only three
// replicas can show (failover, followers, elastic departure).

// joinAll joins world clients to a one-replica set and registers
// cleanup.
func joinAll(t *testing.T, world int, opt Options) []*ClusterClient {
	t.Helper()
	_, addrs := startSet(t, 1, world, 0)
	cls := make([]*ClusterClient, world)
	for r := 0; r < world; r++ {
		cl, err := JoinCluster(addrs, r, world, opt)
		if err != nil {
			t.Fatalf("join rank %d: %v", r, err)
		}
		t.Cleanup(func() { cl.Close() }) //nolint:errcheck
		cls[r] = cl
	}
	return cls
}

// eachRank runs fn for every client concurrently and waits.
func eachRank(cls []*ClusterClient, fn func(r int, cl *ClusterClient)) {
	var wg sync.WaitGroup
	for r, cl := range cls {
		wg.Add(1)
		go func(r int, cl *ClusterClient) {
			defer wg.Done()
			fn(r, cl)
		}(r, cl)
	}
	wg.Wait()
}

func TestAllgatherDeliversRankOrderedBlobs(t *testing.T) {
	const world = 4
	cls := joinAll(t, world, testOptions())
	blobOf := func(r int) []byte { return bytes.Repeat([]byte{byte(r + 1)}, (r+1)*100) }
	eachRank(cls, func(r int, cl *ClusterClient) {
		got, err := cl.Allgather("dir", blobOf(r))
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
			return
		}
		if len(got) != world {
			t.Errorf("rank %d got %d blobs", r, len(got))
			return
		}
		for src, b := range got {
			if !bytes.Equal(b, blobOf(src)) {
				t.Errorf("rank %d blob %d mismatch: %d bytes", r, src, len(b))
			}
		}
	})
}

func TestBarrierBlocksUntilAllArrive(t *testing.T) {
	const world = 3
	cls := joinAll(t, world, testOptions())

	released := make(chan int, world)
	var wg sync.WaitGroup
	for r := 0; r < world-1; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := cls[r].Barrier("b"); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			released <- r
		}(r)
	}
	select {
	case r := <-released:
		t.Fatalf("rank %d released before all arrived", r)
	case <-time.After(100 * time.Millisecond):
	}
	if err := cls[world-1].Barrier("b"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(released) != world-1 {
		t.Fatalf("only %d ranks released", len(released))
	}
}

func TestRepeatedCollectivesOnOneConnection(t *testing.T) {
	const world = 2
	cls := joinAll(t, world, testOptions())
	for round := 0; round < 3; round++ {
		name := fmt.Sprintf("round-%d", round)
		eachRank(cls, func(r int, cl *ClusterClient) {
			if err := cl.Barrier(name); err != nil {
				t.Errorf("barrier %s rank %d: %v", name, r, err)
				return
			}
			got, err := cl.Allgather(name, []byte{byte(r), byte(round)})
			if err != nil {
				t.Errorf("gather %s rank %d: %v", name, r, err)
				return
			}
			for src := 0; src < world; src++ {
				if !bytes.Equal(got[src], []byte{byte(src), byte(round)}) {
					t.Errorf("round %d rank %d: bad blob from %d", round, r, src)
				}
			}
		})
	}
}

// TestJoinValidation: a join the coordinator can tell is wrong is refused
// at once with the reason, not retried until ResolveTimeout.
func TestJoinValidation(t *testing.T) {
	_, addrs := startSet(t, 1, 2, 0)
	cl, err := JoinCluster(addrs, 0, 2, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	for _, tc := range []struct {
		name        string
		rank, world int
	}{
		{"world mismatch", 1, 3},
		{"rank out of range", 5, 2},
		{"duplicate rank", 0, 2},
	} {
		start := time.Now()
		dup, err := JoinCluster(addrs, tc.rank, tc.world, testOptions())
		if err == nil {
			dup.Close() //nolint:errcheck
			t.Fatalf("%s accepted", tc.name)
		}
		if errors.Is(err, ErrNoLeader) || time.Since(start) > 2*time.Second {
			t.Fatalf("%s: refused as %v after %v, want an immediate rejection", tc.name, err, time.Since(start))
		}
	}
}

// TestPeerDeathAbortsSurvivors is the rank-death contract: a rank whose
// connection dies mid-allgather surfaces as a typed *PeerLostError on
// every survivor. The leader cannot tell a dead rank from one that is
// reconnecting, so the report comes once the rank has stayed away for
// RankGrace: not on the dropped connection, and far inside WaitTimeout.
func TestPeerDeathAbortsSurvivors(t *testing.T) {
	const world = 3
	const grace = 300 * time.Millisecond
	_, addrs := startSet(t, 1, world, grace)
	cls := make([]*ClusterClient, world)
	for r := range cls {
		cl, err := JoinCluster(addrs, r, world, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close() //nolint:errcheck
		cls[r] = cl
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = cls[r].Allgather("doomed", []byte{byte(r)})
		}(r)
	}
	// Rank 2 dies without contributing: hard connection drop.
	time.Sleep(50 * time.Millisecond)
	dropped := time.Now()
	cls[2].conn.Close() //nolint:errcheck

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("survivors wedged after peer death")
	}
	if waited := time.Since(dropped); waited < grace {
		t.Fatalf("rank declared dead %v after its connection dropped, before RankGrace %v", waited, grace)
	}
	for r := 0; r < 2; r++ {
		var pl *PeerLostError
		if !errors.As(errs[r], &pl) || !errors.Is(errs[r], ErrPeerLost) {
			t.Fatalf("rank %d: want PeerLostError, got %v", r, errs[r])
		}
		if pl.Rank != 2 {
			t.Fatalf("rank %d: lost rank = %d, want 2", r, pl.Rank)
		}
	}
	// The job is poisoned: later collectives fail fast too.
	if err := cls[0].Barrier("after"); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("post-failure barrier: %v", err)
	}
}

// TestGracefulLeaveOutsideCollective checks an orderly Close between
// collectives is not a rank death: the job is not poisoned and the rank
// is still a member (it may rejoin after a restart).
func TestGracefulLeaveOutsideCollective(t *testing.T) {
	const world = 2
	cls := joinAll(t, world, testOptions())
	eachRank(cls, func(r int, cl *ClusterClient) {
		if err := cl.Barrier("sync"); err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	})
	if err := cls[1].Close(); err != nil {
		t.Fatal(err)
	}
	// Client-side reuse after Close is refused locally.
	if err := cls[1].Barrier("x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed client barrier: %v", err)
	}
	st, err := cls[0].Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Failed != "" || st.World != world {
		t.Fatalf("after an orderly leave: failed=%q world=%d, want a healthy job of %d", st.Failed, st.World, world)
	}
}

func TestWaitTimeout(t *testing.T) {
	const world = 2
	_, addrs := startSet(t, 1, world, 0)
	cl, err := JoinCluster(addrs, 0, world, Options{DialTimeout: time.Second, WaitTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	// Rank 1 never joins, so the barrier cannot complete.
	start := time.Now()
	err = cl.Barrier("lonely")
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("want ErrWaitTimeout, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took too long")
	}
}

// TestJoinClusterSearchesForResolveTimeout pins what a rank sees when
// its coordinator is not there: it sweeps with backoff for the whole
// ResolveTimeout (so a rank may start before its coordinator, second
// half) and then fails with ErrNoLeader, no later than one backoff step
// past the budget.
func TestJoinClusterSearchesForResolveTimeout(t *testing.T) {
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close() //nolint:errcheck
		return ln.Addr().String()
	}
	const budget = 300 * time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	opt := Options{DialTimeout: time.Second, ResolveTimeout: budget}

	start := time.Now()
	cl, err := JoinCluster([]string{reserve()}, 0, 1, opt)
	elapsed := time.Since(start)
	if err == nil {
		cl.Close() //nolint:errcheck
		t.Fatal("joined a coordinator nobody hosts")
	}
	if !errors.Is(err, ErrNoLeader) {
		t.Fatalf("unreachable coordinator: %v, want ErrNoLeader", err)
	}
	if elapsed < budget || elapsed > budget+maxBackoff {
		t.Fatalf("gave up after %v, want between ResolveTimeout %v and one backoff step past it", elapsed, budget)
	}

	// The rank dials first; its coordinator comes up 150 ms later.
	addr := reserve()
	opt.ResolveTimeout = 10 * time.Second
	joined := make(chan error, 1)
	go func() {
		cl, err := JoinCluster([]string{addr}, 0, 1, opt)
		if err == nil {
			err = cl.Barrier("late-coordinator")
			cl.Close() //nolint:errcheck
		}
		joined <- err
	}()
	time.Sleep(150 * time.Millisecond)
	srv, err := ListenReplicated(1, addr, []string{addr}, ReplicatedOptions{ElectionTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	if err := <-joined; err != nil {
		t.Fatalf("rank that started before its coordinator: %v", err)
	}
}

// TestCloseLeaksNoGoroutines: everything a replica set and its clients
// start is gone once every one of them is closed.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			const world = 2
			before := runtime.NumGoroutine()
			srvs, addrs, err := StartReplicaSet(replicas, world, ReplicatedOptions{ElectionTimeout: 80 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			cls := make([]*ClusterClient, world)
			for r := range cls {
				if cls[r], err = JoinCluster(addrs, r, world, testOptions()); err != nil {
					t.Fatal(err)
				}
			}
			eachRank(cls, func(r int, cl *ClusterClient) {
				if _, err := cl.Allgather("g", []byte{byte(r)}); err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			})
			for _, cl := range cls {
				cl.Close() //nolint:errcheck
			}
			for _, s := range srvs {
				s.Close() //nolint:errcheck
			}
			// Close waits for the goroutines it owns; the scheduler may
			// still be retiring the ones that had already returned.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			// A leak is more goroutines than before; fewer is an unrelated
			// one (an earlier test's, the runtime's) exiting meanwhile.
			if after := runtime.NumGoroutine(); after > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before StartReplicaSet, %d after every Close\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

func TestUnpackBlobsRejectsCorruptSets(t *testing.T) {
	// count(u32) | count × (rank(u32) | len(u32) | blob)
	for name, body := range map[string][]byte{
		"short count":     {1, 0, 0},
		"short entry":     {1, 0, 0, 0, 0, 0, 0, 0, 1, 0},
		"truncated blob":  {1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 'a'},
		"trailing bytes":  {1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'a', 'x'},
		"negative length": {1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
		"rank past world": {1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0},
	} {
		if _, err := unpackRankBlobs(body, 1); !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s accepted: %v", name, err)
		}
	}
	// Rank 1 of 2 contributed "a"; rank 0 is no longer a member.
	got, err := unpackRankBlobs([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 'a'}, 2)
	if err != nil || len(got) != 2 || got[0] != nil || string(got[1]) != "a" {
		t.Fatalf("valid set rejected: %v %q", err, got)
	}
}
