// Command dlfsd runs a standalone NVMe-oF-style TCP block target — the
// storage-node daemon of the live disaggregation path. Start one per
// storage node, then point clients (dlfsctl smoke with explicit targets,
// or code using dlfs.MountLive) at the printed addresses.
//
//	dlfsd -listen 127.0.0.1:4420 -capacity 4GiB -depth 64 -workers 4 -queue 256
//
// Multiple jobs can share one node under tenant isolation: each client
// mounts with a tenant id, the target schedules tenants with deficit
// round robin, and optional per-tenant quotas throttle a greedy job
// instead of letting it crowd out the others:
//
//	dlfsd -listen 127.0.0.1:4420 -max-tenants 4 \
//	      -tenant-bps 268435456 -tenant-iops 20000
//
// For a multi-node job one storage node additionally hosts the mount
// coordinator (the barrier/allgather control plane of
// live.MountClusterPeers), a replica set of one:
//
//	dlfsd -listen 127.0.0.1:4420 -coord 127.0.0.1:4430 -coord-world 3
//
// For a fault-tolerant control plane run three such nodes, each hosting
// one replica of the Raft-backed set; any replica can be dialed, and the
// set survives the leader dying mid-job:
//
//	dlfsd -listen 127.0.0.1:4420 -coord 127.0.0.1:4430 \
//	      -coord-peers 127.0.0.1:4430,127.0.0.1:4431,127.0.0.1:4432 -coord-world 3
//
// Ranks that mount with live.Config.PeerCache additionally exchange
// their cooperative-cache (DLPC) service addresses through the hosted
// coordinator — one extra allgather on the mount path, no dlfsd flags
// needed; the daemon only ever sees the once-per-cluster origin reads.
//
// The daemon serves until interrupted, printing a stats line every
// -stats interval. The line reports the opcode mix, connection health
// and the RPQ/SCQ engine's per-stage figures, e.g.:
//
//	dlfsd: served 16896 commands, 528 MiB, reads=512 writes=384 vec-reads=16000 (6.1 segs/cmd), conns accepted=6 malformed=0 aborted=0
//	dlfsd: engine: qwait=1.2s service=840ms flush=2.1s writevs=2112 batch=8.0 cmds/flush zero-copy=526 MiB staged=1.5 MiB (99% zero-copy) restaged=0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dlfs/internal/blockdev"
	"dlfs/internal/coord"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/obs"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:4420", "address to serve on")
	capacity := flag.String("capacity", "1GiB", "exported capacity (supports KiB/MiB/GiB suffixes)")
	depth := flag.Int("depth", 64, "per-connection queue depth")
	workers := flag.Int("workers", 0, "RPQ worker pool size (0 takes the default)")
	queue := flag.Int("queue", 0, "request-posting queue depth (0 takes the default)")
	maxTenants := flag.Int("max-tenants", 0, "tenant ids accepted, 0..n-1 (0 takes the default)")
	tenantQueue := flag.Int("tenant-queue", 0, "per-tenant scheduler queue depth (0 takes the default, <0 unbounded)")
	tenantBPS := flag.Int64("tenant-bps", 0, "per-tenant payload byte quota per second (<=0 disables)")
	tenantIOPS := flag.Int64("tenant-iops", 0, "per-tenant command quota per second (<=0 disables)")
	stats := flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	coordAddr := flag.String("coord", "", "also host the multi-node mount coordinator on this address")
	coordWorld := flag.Int("coord-world", 0, "job size the coordinator waits for (required with -coord)")
	coordPeers := flag.String("coord-peers", "", "comma-separated addresses of every coordinator replica, -coord's own included (default: -coord alone, a set of one)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /healthz and /trace.json on this address (enables stage histograms)")
	flag.Parse()

	capBytes, err := parseBytes(*capacity)
	if err != nil {
		fatal(err)
	}
	var coordSrv *coord.ReplicatedServer
	var raftMetrics *metrics.Consensus
	if *coordPeers != "" && *coordAddr == "" {
		fatal(fmt.Errorf("dlfsd: -coord-peers needs -coord naming this replica's own address"))
	}
	if *coordAddr != "" {
		coordSrv, raftMetrics, err = hostCoordinator(*coordAddr, *coordPeers, *coordWorld)
		if err != nil {
			fatal(err)
		}
		defer coordSrv.Close() //nolint:errcheck
	}
	cfg := nvmetcp.Config{
		Depth: *depth, Workers: *workers, QueueDepth: *queue,
		MaxTenants: *maxTenants, TenantQueueDepth: *tenantQueue,
		TenantBytesPerSec: *tenantBPS, TenantIOPS: *tenantIOPS,
		StageHistograms: *metricsAddr != "",
	}
	tgt := nvmetcp.NewTargetConfig(blockdev.New(capBytes), cfg)
	addr, err := tgt.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dlfsd: serving %s (%d bytes) on %s, queue depth %d\n",
		metrics.HumanBytes(capBytes), capBytes, addr, *depth)
	if *metricsAddr != "" {
		h := obs.NewHandler()
		h.Register(obs.TargetCollector(addr, tgt))
		if raftMetrics != nil {
			h.Register(obs.ConsensusCollector(*coordAddr, raftMetrics.Snapshot))
		}
		msrv, err := obs.Serve(*metricsAddr, h)
		if err != nil {
			fatal(err)
		}
		defer msrv.Close() //nolint:errcheck
		fmt.Printf("dlfsd: metrics on http://%s/metrics\n", msrv.Addr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *stats > 0 {
		ticker = time.NewTicker(*stats)
		tick = ticker.C
		defer ticker.Stop()
	}
	for {
		select {
		case <-tick:
			fmt.Printf("dlfsd: %s\n", statsLine(tgt))
		case sig := <-stop:
			fmt.Printf("dlfsd: %v, shutting down\n", sig)
			if coordSrv != nil {
				if err := coordSrv.Close(); err != nil {
					fatal(err)
				}
			}
			if err := tgt.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("dlfsd: final: %s\n", statsLine(tgt))
			return
		}
	}
}

// hostCoordinator starts this process's replica of the mount coordinator
// on addr. peerList is -coord-peers; empty, the set is [addr], a single
// coordinator.
func hostCoordinator(addr, peerList string, world int) (*coord.ReplicatedServer, *metrics.Consensus, error) {
	if world <= 0 {
		return nil, nil, fmt.Errorf("dlfsd: -coord %s needs -coord-world > 0", addr)
	}
	peers := []string{addr}
	if peerList != "" {
		peers = strings.Split(peerList, ",")
		self := false
		for i := range peers {
			peers[i] = strings.TrimSpace(peers[i])
			self = self || peers[i] == addr
		}
		if !self {
			return nil, nil, fmt.Errorf("dlfsd: -coord %s is not in -coord-peers %s", addr, peerList)
		}
	}
	raft := &metrics.Consensus{}
	srv, err := coord.ListenReplicated(world, addr, peers, coord.ReplicatedOptions{Metrics: raft})
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("dlfsd: coordinator replica %s of set %v for a %d-rank job\n", addr, peers, world)
	return srv, raft, nil
}

// statsLine renders the serving counters — opcode mix with the
// vectored-read coalescing factor, connection health, and the RPQ/SCQ
// engine's per-stage figures.
func statsLine(tgt *nvmetcp.Target) string {
	cmds, bytes := tgt.Served()
	accepted, malformed, aborted := tgt.ConnStats()
	reads, writes, vecReads, vecSegs := tgt.OpStats()
	line := fmt.Sprintf("served %d commands, %s, reads=%d writes=%d vec-reads=%d",
		cmds, metrics.HumanBytes(bytes), reads, writes, vecReads)
	if vecReads > 0 {
		line += fmt.Sprintf(" (%.1f segs/cmd)", float64(vecSegs)/float64(vecReads))
	}
	ss := tgt.ServerStats()
	if ss.VecWriteCmds > 0 {
		line += fmt.Sprintf(" vec-writes=%d (%.1f segs/cmd)",
			ss.VecWriteCmds, float64(ss.VecWriteSegs)/float64(ss.VecWriteCmds))
	}
	if ss.FlushCmds > 0 {
		line += fmt.Sprintf(" flushes=%d", ss.FlushCmds)
	}
	line += fmt.Sprintf(", conns accepted=%d malformed=%d aborted=%d", accepted, malformed, aborted)
	line += fmt.Sprintf("\ndlfsd: engine: %s", ss)
	tstats := tgt.TenantStats()
	// Tenant 0 alone with no throttles is the single-tenant steady
	// state — not worth a line per tick.
	if !(len(tstats) == 1 && tstats[0].ID == 0 && tstats[0].Throttled == 0) {
		for _, ts := range tstats {
			line += fmt.Sprintf("\ndlfsd: tenant %d: cmds=%d bytes=%s throttled=%d queued=%d qwait=%s",
				ts.ID, ts.Cmds, metrics.HumanBytes(ts.Bytes), ts.Throttled, ts.Queued,
				time.Duration(ts.Server.QueueWaitNanos))
		}
	}
	if rej := tgt.TenantRejects(); rej > 0 {
		line += fmt.Sprintf("\ndlfsd: tenant rejects=%d (malformed or unprovisioned ids)", rej)
	}
	return line
}

// parseBytes parses "512", "4KiB", "1MiB", "2GiB" (also accepts KB/MB/GB
// as binary for convenience).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	lower := strings.ToLower(s)
	for _, suf := range []struct {
		tag string
		m   int64
	}{
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
	} {
		if strings.HasSuffix(lower, suf.tag) {
			mult = suf.m
			s = s[:len(s)-len(suf.tag)]
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("dlfsd: bad size %q", s)
	}
	return v * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
