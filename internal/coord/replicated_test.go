package coord

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dlfs/internal/wire"
)

// startSet stands up a replica set with fast, test-friendly timings.
func startSet(t *testing.T, n, world int, grace time.Duration) ([]*ReplicatedServer, []string) {
	t.Helper()
	if grace <= 0 {
		grace = 2 * time.Second
	}
	srvs, addrs, err := StartReplicaSet(n, world, ReplicatedOptions{
		ElectionTimeout: 80 * time.Millisecond,
		RankGrace:       grace,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range srvs {
			s.Close() //nolint:errcheck
		}
	})
	return srvs, addrs
}

func testOptions() Options {
	return Options{
		DialTimeout:    2 * time.Second,
		WaitTimeout:    15 * time.Second,
		ResolveTimeout: 15 * time.Second,
	}
}

// waitSetLeader polls until one replica reports itself leader.
func waitSetLeader(t *testing.T, srvs []*ReplicatedServer) *ReplicatedServer {
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

func TestReplicatedBarrierAndGather(t *testing.T) {
	_, addrs := startSet(t, 3, 3, 0)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	blobs := make([][][]byte, 3)
	for rank := 0; rank < 3; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := JoinCluster(addrs, rank, 3, testOptions())
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close() //nolint:errcheck
			if err := c.Barrier("start"); err != nil {
				errs[rank] = err
				return
			}
			blobs[rank], errs[rank] = c.Allgather("dir", []byte(fmt.Sprintf("blob-%d", rank)))
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank := 0; rank < 3; rank++ {
		if len(blobs[rank]) != 3 {
			t.Fatalf("rank %d got %d blobs", rank, len(blobs[rank]))
		}
		for r := 0; r < 3; r++ {
			want := fmt.Sprintf("blob-%d", r)
			if string(blobs[rank][r]) != want {
				t.Fatalf("rank %d blob[%d] = %q, want %q", rank, r, blobs[rank][r], want)
			}
		}
	}
}

func TestReplicatedLeaderFailoverMidCollective(t *testing.T) {
	srvs, addrs := startSet(t, 3, 3, 0)
	leader := waitSetLeader(t, srvs)

	clients := make([]*ClusterClient, 3)
	for rank := 0; rank < 3; rank++ {
		c, err := JoinCluster(addrs, rank, 3, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		clients[rank] = c
	}

	// Ranks 0 and 1 enter the barrier and block on rank 2; then the
	// leader dies mid-collective. Their connections drop, they re-resolve
	// to the new leader and resubmit; rank 2 arrives there and everyone
	// is released.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for _, rank := range []int{0, 1} {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = clients[rank].Barrier("epoch")
		}(rank)
	}
	time.Sleep(300 * time.Millisecond) // let 0 and 1 get their arrivals in
	if err := leader.Close(); err != nil {
		t.Fatalf("killing leader: %v", err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[2] = clients[2].Barrier("epoch")
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d barrier across failover: %v", rank, err)
		}
	}

	// A new leader must be visible, at a higher term.
	st, err := clients[0].Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Leader == "" || st.Leader == leader.Addr() {
		t.Fatalf("leader after failover = %q (dead leader was %q)", st.Leader, leader.Addr())
	}
}

func TestReplicatedDepartBumpsEpochAndReshards(t *testing.T) {
	srvs, addrs := startSet(t, 3, 3, 0)
	waitSetLeader(t, srvs)

	clients := make([]*ClusterClient, 3)
	for rank := 0; rank < 3; rank++ {
		c, err := JoinCluster(addrs, rank, 3, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		clients[rank] = c
	}
	defer clients[0].Close() //nolint:errcheck
	defer clients[1].Close() //nolint:errcheck

	before, err := clients[0].Status()
	if err != nil {
		t.Fatal(err)
	}

	st, err := clients[2].Depart(7)
	if err != nil {
		t.Fatalf("depart: %v", err)
	}
	if st.World != 2 || st.DepartRank != 2 || st.DepartCut != 7 {
		t.Fatalf("depart status = %+v", st)
	}
	if st.Epoch != before.Epoch+1 {
		t.Fatalf("epoch %d after depart, want %d", st.Epoch, before.Epoch+1)
	}
	if len(st.Members) != 2 || st.Members[0] != 0 || st.Members[1] != 1 {
		t.Fatalf("members after depart = %v", st.Members)
	}

	// Collectives now need only the two survivors.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = clients[rank].Barrier("post-depart")
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("survivor %d barrier: %v", rank, err)
		}
	}
}

func TestReplicatedRankDeathDuringBarrierPoisons(t *testing.T) {
	srvs, addrs := startSet(t, 3, 3, 150*time.Millisecond)
	leader := waitSetLeader(t, srvs)

	// Rank 2 joins raw and dies without a trace.
	conn, err := net.Dial("tcp", leader.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var worldw [4]byte
	binary.LittleEndian.PutUint32(worldw[:], 3)
	if err := proto.Write(conn, new(wire.Header), &frame{Op: opJoin, Tag: 2, Payload: worldw[:]}); err != nil {
		t.Fatal(err)
	}
	if f, err := proto.Read(conn, new(wire.Header), nil); err != nil || f.Op != opJoinOK {
		t.Fatalf("raw join: op=%v err=%v", f, err)
	}

	c0, err := JoinCluster(addrs, 0, 3, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close() //nolint:errcheck
	c1, err := JoinCluster(addrs, 1, 3, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close() //nolint:errcheck

	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = c0.Barrier("doomed") }()
	go func() { defer wg.Done(); errs[1] = c1.Barrier("doomed") }()
	time.Sleep(100 * time.Millisecond)
	conn.Close() //nolint:errcheck — rank 2 dies mid-barrier
	wg.Wait()
	elapsed := time.Since(start)

	for rank, err := range errs {
		var pl *PeerLostError
		if !errors.As(err, &pl) {
			t.Fatalf("rank %d got %v, want *PeerLostError", rank, err)
		}
		if pl.Rank != 2 {
			t.Fatalf("rank %d blamed rank %d, want 2", rank, pl.Rank)
		}
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("rank %d error does not match ErrPeerLost", rank)
		}
	}
	if elapsed >= testOptions().WaitTimeout {
		t.Fatalf("survivors took %v, not inside WaitTimeout %v", elapsed, testOptions().WaitTimeout)
	}
}

func TestReplicatedStatusFromFollower(t *testing.T) {
	srvs, _ := startSet(t, 3, 3, 0)
	leader := waitSetLeader(t, srvs)
	for _, s := range srvs {
		if s == leader {
			continue
		}
		st, err := FetchStatus(s.Addr(), 2*time.Second)
		if err != nil {
			t.Fatalf("status from follower %s: %v", s.Addr(), err)
		}
		if st.Leader != leader.Addr() {
			t.Fatalf("follower %s reports leader %q, want %q", s.Addr(), st.Leader, leader.Addr())
		}
		if st.World != 3 || st.Epoch == 0 {
			t.Fatalf("follower status = %+v", st)
		}
	}
}

func TestFrameSizeLimits(t *testing.T) {
	// A control frame claiming a huge payload must fail with the typed
	// error before any large allocation.
	mk := func(op byte, n uint32) []byte {
		hdr := make([]byte, wire.HeaderSize)
		binary.LittleEndian.PutUint32(hdr[0:4], Magic)
		hdr[4] = op
		binary.LittleEndian.PutUint32(hdr[5:9], 0)
		binary.LittleEndian.PutUint32(hdr[9:13], n)
		return hdr
	}
	_, err := proto.Read(bytes.NewReader(mk(opBarrier, maxControlPayload+1)), new(wire.Header), nil)
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Fatalf("got %v, want *FrameSizeError", err)
	}
	if fse.Op != opBarrier || fse.Limit != maxControlPayload {
		t.Fatalf("frame size error = %+v", fse)
	}
	if !errors.Is(err, ErrFrameTooLarge) || !errors.Is(err, ErrProtocol) {
		t.Fatal("FrameSizeError must match both ErrFrameTooLarge and ErrProtocol")
	}

	// Gather frames get the big cap: the same length is fine there (the
	// read then fails on the missing payload, not the cap).
	_, err = proto.Read(bytes.NewReader(mk(opGather, maxControlPayload+1)), new(wire.Header), nil)
	if errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("gather frame rejected by control cap: %v", err)
	}

	// A corrupt in-cap length on a truncated stream must not allocate
	// the claimed size before failing (chunked read surfaces EOF first).
	_, err = proto.Read(bytes.NewReader(mk(opGather, maxPayload)), new(wire.Header), nil)
	if err == nil || errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("truncated gather read err = %v", err)
	}
}
