// Command dlfsctl inspects and exercises DLFS interactively:
//
//	dlfsctl info -nodes 8 -n 100000        # mount in simulation, print directory stats
//	dlfsctl smoke -targets 3 -n 500        # live path: spin up local TCP targets,
//	                                       # mount, read an epoch, verify checksums
//	dlfsctl smoke -targets 2 -write        # checkpoint ingest: sharded save through
//	                                       # the write path, flush, verified read-back
//	dlfsctl cluster -ranks 3 -n 600        # multi-node live mount: in-process job of
//	                                       # N ranks over a TCP coordinator + targets
//	dlfsctl cluster -rank 1 -world 3 -coord host:4430 -targets a:4420,b:4420,c:4420
//	                                       # one rank of a real multi-process job
//	                                       # (-coord a:4430,b:4430,c:4430 for a replica set)
//	dlfsctl lookup -nodes 4 -n 100000 -name <sample>  # decode one directory entry
//	dlfsctl trace -nodes 2 -n 2000 -out trace.json    # record a pipeline trace
//	                                                  # (open in chrome://tracing)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dlfs/internal/chaos"
	"dlfs/internal/coord"
	"dlfs/internal/core"
	"dlfs/internal/dataset"
	"dlfs/internal/live"
	"dlfs/internal/metrics"
	"dlfs/internal/sim"
	"dlfs/internal/workload"

	"dlfs/internal/blockdev"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "info":
		cmdInfo(args)
	case "smoke":
		cmdSmoke(args)
	case "cluster":
		cmdCluster(args)
	case "lookup":
		cmdLookup(args)
	case "trace":
		cmdTrace(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dlfsctl {info|smoke|cluster|lookup|trace} [flags]")
	os.Exit(2)
}

func mountSim(nodes, n int, sizeDist string) ([]*core.FS, *dataset.Dataset) {
	var d dataset.SizeDist
	switch sizeDist {
	case "imagenet":
		d = dataset.ImageNetDist()
	case "imdb":
		d = dataset.IMDBDist()
	default:
		d = dataset.Fixed(128 << 10)
	}
	ds := dataset.Generate(dataset.Config{Label: "ctl", Seed: 1, NumSamples: n, Dist: d})
	e := sim.NewEngine()
	job := workload.NewJob(e, nodes, 20, false)
	fss, err := workload.MountDLFS(e, job, ds, core.Config{})
	if err != nil {
		fatal(err)
	}
	return fss, ds
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "cluster nodes")
	n := fs.Int("n", 10000, "samples")
	dist := fs.String("dist", "imdb", "size distribution")
	fs.Parse(args) //nolint:errcheck

	fss, ds := mountSim(*nodes, *n, *dist)
	dir := fss[0].Directory()
	tab := metrics.NewTable("DLFS in-memory sample directory", "node", "entries", "serialized")
	for nid := 0; nid < dir.NumNodes(); nid++ {
		p := dir.Partition(uint16(nid))
		tab.AddRow(nid, p.Len(), metrics.HumanBytes(int64(p.Len()*16)))
	}
	fmt.Println(tab)
	fmt.Printf("samples: %d   dataset: %s   directory memory: %s per replica\n",
		ds.Len(), metrics.HumanBytes(ds.TotalBytes()), metrics.HumanBytes(dir.MemoryBytes()))
	fmt.Printf("replica fingerprint: %#x (identical on all %d nodes)\n", dir.Fingerprint(), *nodes)
}

func cmdLookup(args []string) {
	fs := flag.NewFlagSet("lookup", flag.ExitOnError)
	nodes := fs.Int("nodes", 4, "cluster nodes")
	n := fs.Int("n", 10000, "samples")
	idx := fs.Int("i", 0, "sample index to resolve")
	fs.Parse(args) //nolint:errcheck

	fss, ds := mountSim(*nodes, *n, "imdb")
	if *idx < 0 || *idx >= ds.Len() {
		fatal(fmt.Errorf("index %d out of range", *idx))
	}
	s := ds.Samples[*idx]
	e, _, depth, ok := fss[0].Directory().LookupName(s.Name, fmt.Sprintf("class%d", s.Class))
	if !ok {
		fatal(fmt.Errorf("sample %q not found", s.Name))
	}
	fmt.Printf("name:   %s\nkey:    %#x\nentry:  %s\ndepth:  %d tree nodes\n", s.Name, s.Key(), e, depth)
}

func cmdSmoke(args []string) {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	targets := fs.Int("targets", 3, "local TCP targets to start")
	n := fs.Int("n", 500, "samples")
	size := fs.Int("size", 4096, "sample size")
	qps := fs.Int("qps", 0, "queue pairs per target (0 takes the default)")
	serverAssembly := fs.Bool("server-assembly", false, "offload sample extraction to the targets (opReadSamples)")
	tenant := fs.Int("tenant", 0, "tenant id stamped on every command (0 = legacy tenant)")
	assemblyXform := fs.Int("assembly-transform", 0, "server-side transform ID (0 none, 1 crc32c-verify, 3 stride-subsample)")
	chaosSeed := fs.Int64("chaos-seed", 0, "chaos fault schedule seed (0 disables the chaos proxies)")
	dropProb := fs.Float64("chaos-drop", 0.002, "per-segment connection-kill probability under chaos")
	delayProb := fs.Float64("chaos-delay-prob", 0.05, "per-segment delay probability under chaos")
	delay := fs.Duration("chaos-delay", time.Millisecond, "injected per-segment delay under chaos")
	dead := fs.Int("dead", -1, "blackhole this target index after mount (degraded-mode demo)")
	write := fs.Bool("write", false, "exercise the checkpoint write path after the epoch: sharded save, durability barrier, verified read-back")
	ckptBytes := fs.Int("ckpt-bytes", 8<<20, "checkpoint state size for -write")
	fs.Parse(args) //nolint:errcheck

	addrs := make([]string, *targets)
	proxies := make([]*chaos.Proxy, *targets)
	tgts := make([]*nvmetcp.Target, *targets)
	for i := range addrs {
		tgt := nvmetcp.NewTargetConfig(blockdev.New(1<<30), nvmetcp.Config{
			Depth: 64, MaxTenants: *tenant + 1, StageHistograms: true,
		})
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		defer tgt.Close() //nolint:errcheck
		tgts[i] = tgt
		if *chaosSeed != 0 || *dead == i {
			cfg := chaos.Config{}
			if *chaosSeed != 0 {
				cfg = chaos.Config{
					Seed:      *chaosSeed + int64(i),
					DropProb:  *dropProb,
					DelayProb: *delayProb,
					Delay:     *delay,
				}
			}
			p := chaos.NewProxy(addr, cfg)
			paddr, err := p.Listen("127.0.0.1:0")
			if err != nil {
				fatal(err)
			}
			defer p.Close() //nolint:errcheck
			proxies[i] = p
			addr = paddr
		}
		addrs[i] = addr
		fmt.Printf("target %d: %s\n", i, addr)
	}
	ds := dataset.Generate(dataset.Config{Label: "smoke", Seed: 2, NumSamples: *n, Dist: dataset.Fixed(*size)})
	cfg := live.Config{
		QueuePairs: *qps, StageHistograms: true,
		ServerAssembly: *serverAssembly, AssemblyTransform: *assemblyXform, Tenant: *tenant,
	}
	if *dead >= 0 {
		// A blackholed target never answers; keep the deadlines and the
		// retry ladder short so the breaker trips quickly, and let the
		// epoch complete on the surviving targets.
		cfg.AllowDegraded = true
		cfg.RequestTimeout = 250 * time.Millisecond
		cfg.DialTimeout = 250 * time.Millisecond
		cfg.MaxRetries = 2
		cfg.BreakerThreshold = 2
	}
	start := time.Now()
	lfs, err := live.Mount(addrs, ds, cfg)
	if err != nil {
		fatal(err)
	}
	defer lfs.Close() //nolint:errcheck
	fmt.Printf("mounted %d samples (%s) in %.2fs\n", ds.Len(),
		metrics.HumanBytes(ds.TotalBytes()), time.Since(start).Seconds())
	if *dead >= 0 {
		if *dead >= *targets {
			fatal(fmt.Errorf("-dead %d out of range (%d targets)", *dead, *targets))
		}
		proxies[*dead].SetBlackhole(true)
		fmt.Printf("target %d: blackholed\n", *dead)
	}

	ep, err := lfs.Sequence(time.Now().UnixNano())
	if err != nil {
		fatal(err)
	}
	start = time.Now()
	items, err := ep.Drain()
	var derr *live.DegradedError
	if errors.As(err, &derr) {
		fmt.Printf("epoch degraded: %d samples skipped on targets %v\n", derr.Samples, derr.Nodes)
	} else if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	bad := 0
	for _, it := range items {
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			bad++
		}
	}
	fmt.Printf("epoch: %d samples in %.3fs (%s), %d checksum failures\n",
		len(items), elapsed.Seconds(),
		metrics.HumanRate(float64(len(items))/elapsed.Seconds()), bad)
	if *write {
		ck, err := lfs.Checkpointer(live.CheckpointConfig{})
		if err != nil {
			fatal(err)
		}
		state := make([]byte, *ckptBytes)
		for i := range state {
			state[i] = byte(i*2654435761 + 17)
		}
		start = time.Now()
		if err := ck.Save(1, state); err != nil {
			fatal(fmt.Errorf("checkpoint save: %w", err))
		}
		saveSecs := time.Since(start).Seconds()
		got, step, err := ck.Load()
		if err != nil {
			fatal(fmt.Errorf("checkpoint read-back: %w", err))
		}
		verified := step == 1 && string(got) == string(state)
		lfs.Recycle(got)
		if !verified {
			fmt.Fprintln(os.Stderr, "dlfsctl: checkpoint read-back diverged from saved state")
			os.Exit(1)
		}
		fmt.Printf("checkpoint: %s saved + flushed in %.3fs (%s/s), read-back verified\n",
			metrics.HumanBytes(int64(len(state))), saveSecs,
			metrics.HumanBytes(int64(float64(len(state))/saveSecs)))
	}
	st := lfs.Stats()
	fmt.Printf("pipeline (%d QPs/target, %d cache shards): %s\n", st.QueuePairs, st.CacheShards, st.Pipeline)
	if hs := st.Pipeline.Stages; hs != nil {
		for _, sh := range []struct {
			name string
			h    metrics.HistSnapshot
		}{{"prep", hs.Prep}, {"post", hs.Post}, {"poll", hs.Poll}, {"copy", hs.Copy}} {
			fmt.Printf("stage %-5s %s\n", sh.name+":", sh.h)
		}
	}
	fmt.Printf("resilience: %s\n", st.Resilience)
	for i, th := range st.Targets {
		fmt.Printf("target %d: breaker %s (consecutive fails %d)\n", i, th.State, th.ConsecFails)
	}
	// Server-side mirror of the client pipeline counters: opcode mix and
	// the RPQ/SCQ engine figures per target.
	for i, tgt := range tgts {
		reads, writes, vecReads, vecSegs := tgt.OpStats()
		_, malformed, aborted := tgt.ConnStats()
		line := fmt.Sprintf("reads=%d writes=%d vec-reads=%d", reads, writes, vecReads)
		if vecReads > 0 {
			line += fmt.Sprintf(" (%.1f segs/cmd)", float64(vecSegs)/float64(vecReads))
		}
		if malformed+aborted > 0 {
			line += fmt.Sprintf(" malformed=%d aborted=%d", malformed, aborted)
		}
		fmt.Printf("target %d server: %s\n", i, line)
		ss := tgt.ServerStats()
		fmt.Printf("target %d engine: %s\n", i, ss)
		if ss.Stages != nil {
			fmt.Printf("target %d qwait:   %s\n", i, ss.Stages.QueueWait)
			fmt.Printf("target %d service: %s\n", i, ss.Stages.Service)
			fmt.Printf("target %d flush:   %s\n", i, ss.Stages.Flush)
		}
		// Per-tenant scheduler accounting: the queue-wait quantiles are
		// the isolation signal — each tenant waits only behind its own
		// backlog plus the DRR interleave.
		for _, tst := range tgt.TenantStats() {
			tline := fmt.Sprintf("target %d tenant %d: cmds=%d bytes=%s throttled=%d",
				i, tst.ID, tst.Cmds, metrics.HumanBytes(tst.Bytes), tst.Throttled)
			if tst.Server.Stages != nil {
				tline += fmt.Sprintf(" qwait p50=%s p99=%s",
					tst.Server.Stages.QueueWait.P50(), tst.Server.Stages.QueueWait.P99())
			}
			fmt.Println(tline)
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
}

// cmdCluster exercises the multi-node live mount. With -ranks N it runs
// a whole job in-process: N TCP targets, a coordinator replica set
// (-replicas, default one) and N ranks mounting concurrently, then one
// sliced epoch whose union is verified exactly-once by checksum; the
// summary prints the elected leader, term, and placement epoch. With
// -rank/-world/-coord/-targets it runs a single rank of a real
// multi-process job (start targets with dlfsd, host the coordinator with
// dlfsd -coord or -host-coord here on rank 0; -coord lists every replica
// of a dlfsd -coord-peers set).
func cmdCluster(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	ranks := fs.Int("ranks", 0, "in-process mode: run this many ranks locally (0 = distributed mode)")
	replicas := fs.Int("replicas", 1, "in-process mode: coordinator replicas to host")
	rank := fs.Int("rank", 0, "distributed mode: this process's rank")
	world := fs.Int("world", 0, "distributed mode: job size")
	coordAddrs := fs.String("coord", "", "distributed mode: comma-separated coordinator replica addresses (one for a single coordinator)")
	hostCoord := fs.Bool("host-coord", false, "distributed mode: host a single coordinator at -coord (usually on rank 0)")
	targetList := fs.String("targets", "", "distributed mode: comma-separated target addresses, one per rank")
	n := fs.Int("n", 600, "samples")
	size := fs.Int("size", 4096, "sample size")
	seed := fs.Int64("seed", 1, "epoch sequence seed (must match on every rank)")
	peerCache := fs.Bool("peer-cache", false, "host the cooperative peer sample cache on every rank and run a full ReadSample pass to exercise it")
	fs.Parse(args) //nolint:errcheck

	cfg := live.Config{StageHistograms: true, PeerCache: *peerCache}
	ds := dataset.Generate(dataset.Config{Label: "cluster", Seed: 3, NumSamples: *n, Dist: dataset.Fixed(*size)})
	if *ranks > 0 {
		runClusterInProcess(*ranks, *replicas, ds, *seed, cfg)
		return
	}
	if *coordAddrs == "" || *world <= 0 || *targetList == "" {
		fatal(errors.New("cluster: distributed mode needs -rank, -world, -coord and -targets (or use -ranks for in-process)"))
	}
	addrs := strings.Split(*targetList, ",")
	peers := strings.Split(*coordAddrs, ",")
	if *hostCoord {
		if len(peers) != 1 {
			fatal(errors.New("cluster: -host-coord hosts a single coordinator; give -coord one address"))
		}
		srv, err := coord.ListenReplicated(*world, peers[0], peers, coord.ReplicatedOptions{})
		if err != nil {
			fatal(err)
		}
		defer srv.Close() //nolint:errcheck
	}
	if err := runClusterRank(peers, *rank, *world, addrs, ds, *seed, cfg); err != nil {
		fatal(err)
	}
}

// readSamplePass reads the whole dataset through ReadSample (checksummed)
// — the path the cooperative peer cache accelerates.
func readSamplePass(lfs *live.FS, ds *dataset.Dataset) error {
	for i := 0; i < ds.Len(); i++ {
		buf, err := lfs.ReadSample(i)
		if err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		ok := dataset.ChecksumBytes(buf) == ds.Checksum(i)
		lfs.Recycle(buf)
		if !ok {
			return fmt.Errorf("sample %d: checksum mismatch", i)
		}
	}
	return nil
}

// printPeerBreakdown prints where one rank's ReadSample bytes came from:
// its own cache, the peer fabric, or the origin targets.
func printPeerBreakdown(prefix string, pl metrics.PipelineSnapshot) {
	fmt.Printf("%s reads: cache hits %d, peer %d (%s), origin %d (%s), fallbacks %d; served peers %d\n",
		prefix, pl.CacheHits, pl.PeerHits, metrics.HumanBytes(pl.PeerBytes),
		pl.OriginReads, metrics.HumanBytes(pl.OriginBytes), pl.PeerFallbacks, pl.PeerServed)
}

// runClusterRank mounts one rank, consumes its epoch slice, verifies
// checksums, and prints the rank's mount and pipeline stats and the
// control-plane view.
func runClusterRank(peers []string, rank, world int, addrs []string, ds *dataset.Dataset, seed int64, cfg live.Config) error {
	start := time.Now()
	lfs, err := live.MountClusterPeers(peers, rank, world, addrs, ds, cfg)
	if err != nil {
		return err
	}
	defer lfs.Close() //nolint:errcheck
	ms := lfs.MountStats()
	fmt.Printf("rank %d/%d: mounted, directory %#x, %s\n",
		rank, world, lfs.Directory().Fingerprint(), ms)
	printMountPhases(fmt.Sprintf("rank %d", rank), ms)
	ep, err := lfs.ClusterSequence(seed)
	if err != nil {
		return err
	}
	items, err := ep.Drain()
	if err != nil {
		return err
	}
	bad := 0
	for _, it := range items {
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			bad++
		}
	}
	fmt.Printf("rank %d/%d: epoch slice %d/%d samples in %.3fs, %d checksum failures\n",
		rank, world, len(items), ds.Len(), time.Since(start).Seconds(), bad)
	if cfg.PeerCache {
		fmt.Printf("rank %d/%d: peer cache at %s, full ReadSample pass...\n", rank, world, lfs.PeerAddr())
		if err := readSamplePass(lfs, ds); err != nil {
			return err
		}
		printPeerBreakdown(fmt.Sprintf("rank %d/%d", rank, world), lfs.Stats().Pipeline)
	}
	if st, err := lfs.Coordinator().Status(); err == nil {
		fmt.Printf("rank %d/%d: control plane: leader %s, term %d, placement epoch %d, members %v\n",
			rank, world, st.Leader, st.Term, st.Epoch, st.Members)
	}
	if bad > 0 {
		return fmt.Errorf("rank %d: %d checksum failures", rank, bad)
	}
	return nil
}

// runClusterInProcess stands up targets + a coordinator replica set and
// runs every rank as a goroutine — the single-machine smoke of the
// multi-node path. With cfg.PeerCache on, every rank follows the epoch
// with a full ReadSample pass so the cooperative cache traffic shows up
// in the per-rank breakdown.
func runClusterInProcess(world, replicas int, ds *dataset.Dataset, seed int64, cfg live.Config) {
	addrs := make([]string, world)
	for i := range addrs {
		tgt := nvmetcp.NewTarget(blockdev.New(1<<30), 64)
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		defer tgt.Close() //nolint:errcheck
		addrs[i] = addr
		fmt.Printf("target %d: %s\n", i, addr)
	}
	srvs, peers, err := coord.StartReplicaSet(replicas, world, coord.ReplicatedOptions{})
	if err != nil {
		fatal(err)
	}
	defer func() {
		for _, s := range srvs {
			s.Close() //nolint:errcheck
		}
	}()
	fmt.Printf("coordinator replicas: %v (world %d)\n", peers, world)

	type rankOut struct {
		items []live.Item
		ms    metrics.MountSnapshot
		pl    metrics.PipelineSnapshot
		fp    uint64
		err   error
	}
	outs := make([]rankOut, world)
	var wg sync.WaitGroup
	// With the peer cache on, a rank that finishes early must keep its
	// peer service up until every rank is done reading.
	var readers sync.WaitGroup
	readers.Add(world)
	start := time.Now()
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lfs, err := live.MountClusterPeers(peers, r, world, addrs, ds, cfg)
			if err != nil {
				outs[r].err = err
				readers.Done()
				return
			}
			defer lfs.Close()    //nolint:errcheck
			defer readers.Wait() // hold the peer service open for the others
			defer readers.Done()
			outs[r].fp = lfs.Directory().Fingerprint()
			outs[r].ms = lfs.MountStats()
			ep, err := lfs.ClusterSequence(seed)
			if err != nil {
				outs[r].err = err
				return
			}
			outs[r].items, outs[r].err = ep.Drain()
			if outs[r].err == nil && cfg.PeerCache {
				outs[r].err = readSamplePass(lfs, ds)
			}
			outs[r].pl = lfs.Stats().Pipeline
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)

	union := make(map[int]int)
	bad := 0
	for r := range outs {
		if outs[r].err != nil {
			fatal(fmt.Errorf("rank %d: %w", r, outs[r].err))
		}
		if outs[r].fp != outs[0].fp {
			fatal(fmt.Errorf("rank %d fingerprint %#x != rank 0 %#x", r, outs[r].fp, outs[0].fp))
		}
		for _, it := range outs[r].items {
			union[it.Index]++
			if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
				bad++
			}
		}
		fmt.Printf("rank %d: %d samples, mount: %s\n", r, len(outs[r].items), outs[r].ms)
		if cfg.PeerCache {
			printPeerBreakdown(fmt.Sprintf("rank %d", r), outs[r].pl)
		}
	}
	printMountPhases("rank 0", outs[0].ms)
	dups := 0
	for _, c := range union {
		if c != 1 {
			dups++
		}
	}
	fmt.Printf("cluster: %d ranks, directory %#x on all, %d/%d samples exactly-once in %.3fs (%s), %d dups, %d checksum failures\n",
		world, outs[0].fp, len(union), ds.Len(), elapsed.Seconds(),
		metrics.HumanRate(float64(ds.Len())/elapsed.Seconds()), dups, bad)
	printed := false
	for _, p := range peers {
		if st, err := coord.FetchStatus(p, 2*time.Second); err == nil {
			fmt.Printf("control plane: leader %s, term %d, placement epoch %d, members %v\n",
				st.Leader, st.Term, st.Epoch, st.Members)
			printed = true
			break
		}
	}
	if !printed {
		fatal(errors.New("cluster: no coordinator replica answered a status probe"))
	}
	if bad > 0 || dups > 0 || len(union) != ds.Len() {
		os.Exit(1)
	}
}

// printMountPhases prints the per-phase mount latency quantiles when the
// mount ran with stage histograms enabled.
func printMountPhases(prefix string, ms metrics.MountSnapshot) {
	if ms.Phases == nil {
		return
	}
	for _, ph := range []struct {
		name string
		h    metrics.HistSnapshot
	}{
		{"index", ms.Phases.Index}, {"serialize", ms.Phases.Serialize},
		{"allgather", ms.Phases.Allgather}, {"assemble", ms.Phases.Assemble},
		{"barrier", ms.Phases.Barrier},
	} {
		fmt.Printf("%s phase %-10s %s\n", prefix, ph.name+":", ph.h)
	}
}

func cmdTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	nodes := fs.Int("nodes", 2, "cluster nodes")
	n := fs.Int("n", 2000, "samples")
	size := fs.Int("size", 16<<10, "sample size")
	out := fs.String("out", "trace.json", "Chrome trace-event output file")
	fs.Parse(args) //nolint:errcheck

	rec := trace.New(0)
	e := sim.NewEngine()
	job := workload.NewJob(e, *nodes, 20, false)
	ds := dataset.Generate(dataset.Config{Label: "trace", Seed: 4, NumSamples: *n, Dist: dataset.Fixed(*size)})
	fss, err := workload.MountDLFS(e, job, ds, core.Config{Trace: rec})
	if err != nil {
		fatal(err)
	}
	res := workload.RunDLFSEpoch(e, fss, 1)
	sum := rec.Summarize()
	fmt.Printf("epoch: %d samples in %v virtual (%s)\n", res.Samples, res.Elapsed, metrics.HumanRate(res.PerSec()))
	fmt.Printf("trace: %d events; fetch latency p50=%v p99=%v max=%v; mean residency %v\n",
		rec.Len(), sum.FetchP50, sum.FetchP99, sum.FetchMax, sum.UnitsResident)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close() //nolint:errcheck
	if err := rec.WriteChromeJSON(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlfsctl:", err)
	os.Exit(1)
}
