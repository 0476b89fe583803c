package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"dlfs/internal/coord"
	"dlfs/internal/dataset"
	"dlfs/internal/directory"
	"dlfs/internal/live"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/plan"
	"dlfs/internal/trace"
)

// workload is one named set of inputs. The names are fixed: later
// changes state their claims against them.
type workload struct {
	name  string
	why   string
	setup func(r *run, o opts) (env, setupStats, error)
	// variant, when set, names the per-layer metric a traced run gets by
	// also measuring the workload's reference configuration
	// (opts.variant): the workload's rate over the reference's.
	variant string
}

var workloads = []workload{
	{
		name:  "imagenet-cold",
		why:   "ImageNet-sized samples straddle 256 KiB chunks, so per-byte cost in nvmetcp and the live copy stage dominates and the chunk path overfetches",
		setup: epochSpec{dist: dataset.ImageNetDist(), samples: imagenetSamples}.setup,
	},
	{
		name:  "imdb-cold",
		why:   "IMDB-sized samples pack ~190 to a chunk, so per-sample cost in live emit, bufpool, plan and directory dominates and nvmetcp does little per sample",
		setup: epochSpec{dist: dataset.IMDBDist(), samples: imdbSamples}.setup,
	},
	{
		name: "imagenet-assembly",
		why:  "the imagenet-cold data through server assembly with crc32c: the target assembles records, the client skips the copy stage, nothing is overfetched",
		setup: epochSpec{dist: dataset.ImageNetDist(), samples: imagenetSamples,
			config: func(*corpus) live.Config {
				return live.Config{ServerAssembly: true, AssemblyTransform: int(nvmetcp.TransformCRC32C)}
			}}.setup,
	},
	{
		name:    "imagenet-warm",
		why:     "the imagenet-cold data with cross-epoch prefetch holding a whole epoch: the consume window is served from the lookahead store, the wire works only between epochs",
		variant: "live.store_consume_over_cold", // the same mount with cross-epoch prefetch off
		setup: epochSpec{dist: dataset.ImageNetDist(), samples: imagenetSamples, warm: true,
			config: func(c *corpus) live.Config {
				// The store must hold every unit of an epoch, and units
				// are chunks: the plan fetches more than the sample bytes.
				cp, _ := chunkPlan(c, epochTargets, defaultChunk)
				return live.Config{CrossEpochPrefetch: true, PrefetchBudgetBytes: cp.BytesFetched() + 16<<20}
			}}.setup,
	},
	{
		name:  "point-read",
		why:   "one closed-loop ReadSample client per core over a dataset several times the read cache: per-command latency of directory lookup, CLOCK cache and one nvmetcp round trip",
		setup: setupPointRead,
	},
	{
		name:  "ckpt-mixed",
		why:   "cold epochs while a second goroutine saves a checkpoint on an open-loop schedule: the only workload where the write path, flush barriers and view re-staging meet reads",
		setup: epochSpec{dist: dataset.ImageNetDist(), samples: imagenetSamples / 2, save: true}.setup,
	},
	{
		name:    "cluster-peers",
		why:     "two ranks mount through a replicated coordinator and each scan the whole dataset once with the peer cache on: the only workload where coord, consensus and peercache work",
		variant: "peercache.scan_over_origin", // the same cluster with the peer cache off
		setup:   setupCluster,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	imagenetSamples = 2048  // ~0.23 GiB: three set-ups of it fit a run
	imdbSamples     = 30000 // ~37 MiB: Mount uploads one sample per synchronous write
	epochTargets    = 2
	defaultChunk    = 256 << 10 // live.Config's default ChunkSize
)

// chunkPlan lays the corpus out the way Mount does (hash placement,
// samples appended in index order) and builds the chunk plan over it.
func chunkPlan(c *corpus, nodes int, chunk int64) (*plan.ChunkPlan, time.Duration) {
	layout := &plan.Layout{NodeSamples: make([][]plan.Placed, nodes), ChunkSize: chunk}
	offs := make([]int64, nodes)
	for i, s := range c.ds.Samples {
		nid := directory.HomeNode(s.Key(), nodes)
		layout.NodeSamples[nid] = append(layout.NodeSamples[nid], plan.Placed{Sample: i, Offset: offs[nid], Len: int32(s.Size)})
		offs[nid] += int64(s.Size)
	}
	t0 := time.Now()
	cp, err := plan.BuildChunkPlan(layout)
	if err != nil {
		panic(err) // the layout above is valid by construction
	}
	return cp, time.Since(t0)
}

// mounted is a corpus uploaded to in-process targets and mounted with
// live.Mount: what every single-mount workload runs on.
type mounted struct {
	r  *run
	c  *corpus
	tg *targets
	fs *live.FS
}

// mountSingle generates the dataset, starts the targets and mounts, and
// times the three together as one set-up. config may be nil for the
// default live.Config; a traced set-up turns the observability knobs on.
func (r *run) mountSingle(samples, floor int, dist dataset.SizeDist, config func(*corpus) live.Config, o opts) (mounted, setupStats, error) {
	c, gen := r.corpus("bench", r.scaled(samples, floor), dist)
	var cfg live.Config
	if config != nil {
		cfg = config(c)
	}
	if o.traced {
		cfg.StageHistograms, cfg.Trace = true, trace.NewWall(1<<16)
	}
	t0 := time.Now()
	tg, err := startTargets(epochTargets, o)
	if err != nil {
		return mounted{}, setupStats{}, err
	}
	m0 := time.Now()
	fs, err := live.Mount(tg.addrs, c.ds, cfg)
	if err != nil {
		tg.close()
		return mounted{}, setupStats{}, err
	}
	st := setupStats{total: gen + time.Since(t0), generate: gen, mount: time.Since(m0), uploaded: c.bytes, samples: c.ds.Len()}
	return mounted{r: r, c: c, tg: tg, fs: fs}, st, nil
}

func (m mounted) counters() counters {
	var c counters
	c.addFS(m.fs)
	c.addTargets(m.tg)
	return c
}

func (m mounted) close() {
	m.fs.Close() //nolint:errcheck // in-process teardown
	m.tg.close()
}

// epochSpec describes a workload whose unit is one epoch drained by a
// single closed-loop consumer: NextBatch, verify, RecycleItems, next.
type epochSpec struct {
	dist    dataset.SizeDist
	samples int
	config  func(c *corpus) live.Config // nil: the default live.Config
	warm    bool                        // every measured epoch must be served from the lookahead store
	save    bool                        // checkpoints are saved beside the epochs
}

func (s epochSpec) setup(r *run, o opts) (env, setupStats, error) {
	if o.variant {
		// The only epoch workload with a reference variant is
		// imagenet-warm, and its reference is the plain cold mount.
		s.config, s.warm = nil, false
	}
	m, st, err := r.mountSingle(s.samples, 128, s.dist, s.config, o)
	if err != nil {
		return nil, setupStats{}, err
	}
	e := &epochEnv{mounted: m, chk: newChecker(m.c), seed: r.seed * 1_000_003, warm: s.warm}
	if s.save {
		ck, err := m.fs.Checkpointer(live.CheckpointConfig{})
		if err != nil {
			e.close()
			return nil, setupStats{}, err
		}
		e.sv = newSaver(r, m.fs, ck)
	}
	return e, st, nil
}

type epochEnv struct {
	mounted
	chk  *checker
	seed int64 // next epoch's seed; consecutive, which is what the prefetcher predicts
	warm bool
	ran  int
	lat  []int64
	sv   *saver
}

func (e *epochEnv) unit(parent int32) (unitStats, error) {
	var u unitStats
	rec := e.r.rec
	e.chk.reset()
	e.lat = e.lat[:0]
	sp := rec.begin(parent, 0, "epoch")
	defer rec.end(sp)
	wire0 := e.fs.Pipeline().WireReads.Load()
	t0 := time.Now()
	ep, err := e.fs.Sequence(e.seed)
	e.seed++
	if err != nil {
		return u, err
	}
	u.sequence = time.Since(t0)
	rec.leaf(sp, 0, "Sequence", t0, u.sequence)
	bad := 0
	for {
		c0 := time.Now()
		items, ok, err := ep.NextBatch()
		d := time.Since(c0)
		if err != nil {
			// A DegradedError lands here too: the workloads are chosen so
			// that no target is ever down, so a skipped sample is a failure.
			return u, err
		}
		if !ok {
			break
		}
		if u.samples == 0 {
			u.firstBatch = time.Since(t0)
		}
		e.lat = append(e.lat, int64(d))
		rec.leaf(sp, 0, "NextBatch", c0, d)
		for _, it := range items {
			u.bytes += int64(len(it.Data))
			if !e.chk.item(it.Index, it.Data) {
				bad++
			}
		}
		u.samples += int64(len(items))
		e.fs.RecycleItems(items)
	}
	u.consume = time.Since(t0)
	if e.warm {
		// The first epoch of a mount has nothing prefetched; every later
		// one must not touch the wire while it is consumed.
		if n := e.fs.Pipeline().WireReads.Load() - wire0; n > 0 && e.ran > 0 {
			rec.count(0, 1, fmt.Sprintf("warm epoch %d issued %d wire reads in its consume window", e.ran, n))
		}
		w0 := time.Now()
		e.fs.WaitPrefetch()
		u.prefetchWait = time.Since(w0)
		rec.leaf(sp, 0, "WaitPrefetch", w0, u.prefetchWait)
	}
	u.cycle = time.Since(t0)
	e.ran++
	rec.addLat(e.lat)
	rec.count(int64(e.c.ds.Len()), int64(bad+e.chk.missing()),
		fmt.Sprintf("epoch %d: %d samples corrupt or duplicated, %d missing", e.ran, bad, e.chk.missing()))
	return u, nil
}

// saver calls Checkpointer.Save on an open-loop schedule beside the
// epochs: a save is due every period whether or not the last one is
// done, and each is timed from when it was due, so a stall is charged
// to the saves it delays.
type saver struct {
	r     *run
	fs    *live.FS
	ck    *live.Checkpointer
	state []byte
	step  uint64
	stop  chan struct{}
	done  chan struct{}

	fromDue []time.Duration // Save wall, from when the save was due
	inSave  []time.Duration // Save wall, from when it began
	late    []time.Duration // how long after it was due each save began
	load    time.Duration
}

const (
	ckptStateBytes = 32 << 20
	ckptPeriod     = 250 * time.Millisecond
)

func newSaver(r *run, fs *live.FS, ck *live.Checkpointer) *saver {
	sv := &saver{r: r, fs: fs, ck: ck, state: make([]byte, r.scaled(ckptStateBytes, 1<<20))}
	rand.New(rand.NewSource(r.seed)).Read(sv.state) //nolint:gosec // bench data
	return sv
}

// save commits the next step. Every save writes distinct bytes, so a
// read-back cannot pass on a stale slot.
func (sv *saver) save(due time.Time) {
	sv.step++
	binary.LittleEndian.PutUint64(sv.state[int(sv.step*4096)%(len(sv.state)-8):], sv.step)
	t0 := time.Now()
	err := sv.ck.Save(sv.step, sv.state)
	d := time.Since(t0)
	sv.r.rec.leaf(noSpan, 1, "Save", t0, d)
	sv.r.rec.count(1, b2i(err != nil), fmt.Sprintf("save %d: %v", sv.step, err))
	if err == nil && !due.IsZero() {
		sv.fromDue = append(sv.fromDue, t0.Add(d).Sub(due))
		sv.inSave = append(sv.inSave, d)
		sv.late = append(sv.late, t0.Sub(due))
	}
}

// start fills both checkpoint slots, untimed, then starts the schedule.
func (sv *saver) start() {
	sv.save(time.Time{})
	sv.save(time.Time{})
	sv.stop, sv.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sv.done)
		first := time.Now()
		for n := 0; ; n++ {
			due := first.Add(time.Duration(n) * ckptPeriod)
			select {
			case <-sv.stop:
				return
			case <-time.After(time.Until(due)):
			}
			sv.save(due)
		}
	}()
}

// finish stops the schedule and compares Load, byte for byte, with the
// last committed state.
func (sv *saver) finish() {
	close(sv.stop)
	<-sv.done
	t0 := time.Now()
	got, step, err := sv.ck.Load()
	sv.load = time.Since(t0)
	sv.r.rec.leaf(noSpan, 1, "Load", t0, sv.load)
	ok := err == nil && step == sv.step && bytes.Equal(got, sv.state)
	sv.r.rec.count(1, b2i(!ok), fmt.Sprintf("load: step %d (want %d), err %v, bytes equal %v", step, sv.step, err, err == nil && bytes.Equal(got, sv.state)))
	sv.fs.Recycle(got)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// pointEnv is the point-read workload: one closed-loop client per core,
// each walking its own seeded permutation of the whole dataset through
// ReadSample + Recycle. A unit is a fixed number of reads per client.
type pointEnv struct {
	mounted
	perms [][]int32
	pos   []int
	lat   [][]int64
	ops   int
}

const pointOpsPerUnit = 8192 // per client: ~0.3 s at the baseline's rate

func setupPointRead(r *run, o opts) (env, setupStats, error) {
	m, st, err := r.mountSingle(imdbSamples, 512, dataset.IMDBDist(), nil, o)
	if err != nil {
		return nil, setupStats{}, err
	}
	e := &pointEnv{mounted: m, ops: r.scaled(pointOpsPerUnit, 256)}
	for cl := 0; cl < runtime.NumCPU(); cl++ {
		rng := rand.New(rand.NewSource(r.seed<<8 + int64(cl))) //nolint:gosec // access order, not crypto
		perm := make([]int32, m.c.ds.Len())
		for i, v := range rng.Perm(len(perm)) {
			perm[i] = int32(v)
		}
		e.perms = append(e.perms, perm)
		e.lat = append(e.lat, make([]int64, 0, e.ops))
	}
	e.pos = make([]int, len(e.perms))
	return e, st, nil
}

func (e *pointEnv) unit(parent int32) (unitStats, error) {
	rec := e.r.rec
	sp := rec.begin(parent, 0, "read-slice")
	defer rec.end(sp)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		nbytes int64
		bad    int64
		first  error
	)
	t0 := time.Now()
	for cl := range e.perms {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			lat, perm, pos := e.lat[cl][:0], e.perms[cl], e.pos[cl]
			var n, failed int64
			var err error
			for k := 0; k < e.ops; k++ {
				idx := int(perm[pos])
				if pos++; pos == len(perm) {
					pos = 0
				}
				c0 := time.Now()
				buf, rerr := e.fs.ReadSample(idx)
				d := time.Since(c0)
				lat = append(lat, int64(d))
				rec.leaf(sp, cl+1, "ReadSample", c0, d)
				if rerr != nil {
					failed++
					err = rerr
					continue
				}
				if dataset.ChecksumBytes(buf) != e.c.crc[idx] {
					failed++
				}
				n += int64(len(buf))
				e.fs.Recycle(buf)
			}
			e.lat[cl], e.pos[cl] = lat, pos
			mu.Lock()
			nbytes += n
			bad += failed
			if err != nil && first == nil {
				first = err
			}
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	wall := time.Since(t0)
	ops := int64(e.ops * len(e.perms))
	for _, lat := range e.lat {
		rec.addLat(lat)
	}
	rec.count(ops, bad, fmt.Sprintf("read slice: %d of %d reads failed or returned wrong bytes (%v)", bad, ops, first))
	return unitStats{bytes: nbytes, samples: ops, consume: wall, cycle: wall}, nil
}

// clusterEnv is the cluster-peers workload. A unit stands a whole
// cluster up and tears it down again: targets, a three-replica
// coordinator, one MountClusterPeers per rank, then every rank reads
// the whole dataset once through ReadSample, starting half-way round
// from its neighbour. Only the first pass over a mount is cold (with
// the read cache holding the dataset, later ones are local hits), so
// every measured pass needs a fresh mount; and a replica set keeps the
// results of finished collectives by name, so every mount needs a
// fresh replica set.
type clusterEnv struct {
	r     *run
	o     opts
	total counters
	next  *replicaSet // started one unit ahead, so its election overlaps the current unit
}

const (
	clusterWorld    = 2
	clusterReplicas = 3 // a one-replica set never elects a leader
	clusterSamples  = 8192
	clusterSample   = 16 << 10
)

func setupCluster(r *run, o opts) (env, setupStats, error) {
	e := &clusterEnv{r: r, o: o}
	e.corpus() // the checksums, outside the timed units
	var err error
	e.next, err = startReplicaSet()
	return e, setupStats{}, err
}

// corpus generates the cluster's dataset. Even a quick run keeps half
// of it: the origin-bytes check below needs a pass to last much longer
// than the ranks' start skew.
func (e *clusterEnv) corpus() (*corpus, time.Duration) {
	return e.r.corpus("bench", e.r.scaled(clusterSamples, clusterSamples/2), dataset.Fixed(clusterSample))
}

type replicaSet struct {
	srvs  []*coord.ReplicatedServer
	peers []string
}

func startReplicaSet() (*replicaSet, error) {
	srvs, peers, err := coord.StartReplicaSet(clusterReplicas, clusterWorld, coord.ReplicatedOptions{})
	if err != nil {
		return nil, err
	}
	return &replicaSet{srvs: srvs, peers: peers}, nil
}

// waitLeader blocks until the set has elected. The control plane is
// long-running infrastructure, so its election is not part of a mount.
func (rs *replicaSet) waitLeader() error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for _, s := range rs.srvs {
			if l, _ := s.Leader(); l != "" {
				return nil
			}
		}
	}
	return errors.New("coordinator replica set elected no leader within 10s")
}

func (rs *replicaSet) close() {
	for _, s := range rs.srvs {
		s.Close() //nolint:errcheck // in-process teardown
	}
}

func (e *clusterEnv) unit(parent int32) (unitStats, error) {
	rec := e.r.rec
	sp := rec.begin(parent, 0, "cluster")
	defer rec.end(sp)
	rs := e.next
	defer rs.close()
	var err error
	if e.next, err = startReplicaSet(); err != nil {
		e.next = nil
		return unitStats{}, err
	}
	if err := rs.waitLeader(); err != nil {
		return unitStats{}, err
	}

	t0 := time.Now()
	c, gen := e.corpus()
	tg, err := startTargets(clusterWorld, e.o)
	if err != nil {
		return unitStats{}, err
	}
	defer tg.close()
	cfg := live.Config{PeerCache: !e.o.variant, ReadCacheBytes: c.bytes + 4<<20}
	if e.o.traced {
		cfg.StageHistograms = true
	}

	type rankOut struct {
		mount, pass time.Duration
		mounted     time.Time
		mnt         metrics.MountSnapshot
		bytes       int64
		bad         int64
		cnt         counters
		err         error
	}
	outs := make([]rankOut, clusterWorld)
	n := c.ds.Len()
	// A rank that finishes early keeps its peer service up until every
	// rank has finished reading, or its Close would look like a dead
	// peer to the slower ones.
	var wg, readers sync.WaitGroup
	readers.Add(clusterWorld)
	for rank := 0; rank < clusterWorld; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			out := &outs[rank]
			rcfg := cfg
			if e.o.traced {
				rcfg.Trace = trace.NewWall(1 << 16)
			}
			m0 := time.Now()
			fs, err := live.MountClusterPeers(rs.peers, rank, clusterWorld, tg.addrs, c.ds, rcfg)
			out.mounted = time.Now()
			out.mount = out.mounted.Sub(m0)
			rec.leaf(sp, rank+1, "MountClusterPeers", m0, out.mount)
			if err != nil {
				out.err = err
				readers.Done()
				return
			}
			// Deferred calls run last to first: this rank reports done,
			// waits for the others, reads its counters (it serves peers
			// until they finish), then closes.
			defer fs.Close() //nolint:errcheck // in-process teardown
			defer func() { out.cnt.addFS(fs) }()
			defer readers.Wait()
			defer readers.Done()
			out.mnt = fs.MountStats()
			// Start the passes together: the ranks stay half a dataset
			// apart, so no sample is asked of its owner and read by its
			// owner at the same moment (which would pull it twice).
			if out.err = fs.Coordinator().Barrier("bench/scan"); out.err != nil {
				return
			}
			psp := rec.begin(sp, rank+1, "scan")
			lat := make([]int64, 0, n)
			p0 := time.Now()
			for k := 0; k < n; k++ {
				idx := (k + rank*n/clusterWorld) % n
				c0 := time.Now()
				buf, err := fs.ReadSample(idx)
				d := time.Since(c0)
				lat = append(lat, int64(d))
				rec.leaf(psp, rank+1, "ReadSample", c0, d)
				if err != nil {
					out.bad++
					out.err = err
					continue
				}
				if dataset.ChecksumBytes(buf) != c.crc[idx] {
					out.bad++
				}
				out.bytes += int64(len(buf))
				fs.Recycle(buf)
			}
			out.pass = time.Since(p0)
			rec.end(psp)
			rec.addLat(lat)
		}(rank)
	}
	wg.Wait()

	var u unitStats
	var origin, bad int64
	for rank := range outs {
		out := &outs[rank]
		if out.err != nil && out.bytes == 0 {
			return u, fmt.Errorf("rank %d: %w", rank, out.err)
		}
		u.bytes += out.bytes
		bad += out.bad
		origin += out.cnt.Pipe.OriginBytes
		if out.pass > u.consume {
			u.consume = out.pass
		}
		if out.mount > u.setup.mount {
			u.setup.mount, u.setup.mnt = out.mount, out.mnt
		}
		if d := out.mounted.Sub(t0); d > u.setup.total {
			u.setup.total = d
		}
		addInts(&e.total, &out.cnt, 1)
	}
	e.total.addTargets(tg)
	u.samples = int64(clusterWorld * n)
	u.setup.generate, u.setup.uploaded, u.setup.samples = gen, c.bytes, n
	u.cycle = time.Since(t0)
	rec.count(u.samples, bad, fmt.Sprintf("cluster scan: %d of %d reads failed or returned wrong bytes", bad, u.samples))
	if !e.o.variant && origin != c.bytes {
		// With the peer cache on, each sample crosses the storage wire
		// once for the whole cluster.
		rec.count(0, 1, fmt.Sprintf("cluster scan: ranks pulled %d bytes from origin, dataset is %d", origin, c.bytes))
	}
	return u, nil
}

func (e *clusterEnv) counters() counters { return e.total }

func (e *clusterEnv) close() {
	if e.next != nil {
		e.next.close()
	}
}
