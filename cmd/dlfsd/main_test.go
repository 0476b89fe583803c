package main

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"dlfs/internal/blockdev"
	"dlfs/internal/dataset"
	"dlfs/internal/live"
	"dlfs/internal/nvmetcp"
)

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"512":     512,
		"4KiB":    4 << 10,
		"4kb":     4 << 10,
		"1MiB":    1 << 20,
		"2GiB":    2 << 30,
		"3g":      3 << 30,
		" 8 MiB ": 8 << 20,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-1", "0", "12Q"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) accepted", bad)
		}
	}
}

// TestHostedCoordinatorMountsTwoRanks drives what `dlfsd -coord A
// -coord-world 2` hosts when no -coord-peers is given: a coordinator set
// of one replica, through which two ranks mount and read every sample
// back, and whose Raft counters (the dlfs_raft_* export) show the
// replica leading and the mount's collectives committed.
func TestHostedCoordinatorMountsTwoRanks(t *testing.T) {
	const world = 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	caddr := ln.Addr().String()
	ln.Close() //nolint:errcheck
	srv, raft, err := hostCoordinator(caddr, "", world)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	addrs := make([]string, world)
	for r := range addrs {
		tgt := nvmetcp.NewTargetConfig(blockdev.New(64<<20), nvmetcp.Config{})
		if addrs[r], err = tgt.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer tgt.Close() //nolint:errcheck
	}
	ds := dataset.Generate(dataset.Config{Label: "dlfsd", Seed: 5, NumSamples: 64, Dist: dataset.Fixed(1500)})

	var wg sync.WaitGroup
	seen := make([]atomic.Int32, ds.Len())
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fs, err := live.MountClusterPeers([]string{caddr}, r, world, addrs, ds, live.Config{})
			if err != nil {
				t.Errorf("rank %d mount: %v", r, err)
				return
			}
			defer fs.Close() //nolint:errcheck
			ep, err := fs.ClusterSequence(11)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			items, err := ep.Drain()
			if err != nil {
				t.Errorf("rank %d epoch: %v", r, err)
				return
			}
			for _, it := range items {
				if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
					t.Errorf("rank %d sample %d corrupt", r, it.Index)
				}
				seen[it.Index].Add(1)
			}
		}(r)
	}
	wg.Wait()
	for i := range seen {
		if n := seen[i].Load(); n != 1 && !t.Failed() {
			t.Fatalf("sample %d delivered %d times across the two ranks", i, n)
		}
	}
	if s := raft.Snapshot(); !s.IsLeader || s.Proposals == 0 || s.CommitIndex == 0 {
		t.Fatalf("a set of one did not lead and commit the mount: %+v", s)
	}
	if _, _, err := hostCoordinator(caddr, "127.0.0.1:1,127.0.0.1:2", world); err == nil {
		t.Fatal("-coord outside -coord-peers accepted")
	}
	if _, _, err := hostCoordinator(caddr, "", 0); err == nil {
		t.Fatal("-coord without -coord-world accepted")
	}
}
