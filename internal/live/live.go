// Package live is the real-concurrency DLFS client: the same design as
// internal/core — hash-sharded upload, in-memory tree-based sample
// directory, chunk-level batched reads from a huge-page-style cache — but
// running on ordinary goroutines against real TCP NVMe-oF-style targets
// (internal/nvmetcp) instead of the discrete-event simulation.
//
// The read path is a multi-queue zero-copy pipeline. Each target is
// driven through a QPGroup of several reconnecting connections with
// commands striped across them; prefetchers walk the seeded epoch order
// ahead of the consumer and coalesce adjacent same-target units into
// single vectored wire reads whose payloads land directly in huge-page
// cache chunks or, for large samples, in the pool buffers NextBatch
// hands out; sample emission and the ReadSample V-bit cache draw from
// that size-class pool instead of allocating per call. Each stage
// (prep, post, poll, copy) is timed into a metrics.Pipeline.
//
// Unlike the simulation, the live path assumes the fabric misbehaves:
// every queue pair reconnects with per-command deadlines, and a
// per-target circuit breaker gates fetches. When a target is down and
// Config.AllowDegraded is set, prefetchers skip its chunks and the epoch
// keeps emitting samples from healthy nodes, finishing with a
// DegradedError instead of wedging the training loop.
package live

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dlfs/internal/bufpool"
	"dlfs/internal/coord"
	"dlfs/internal/dataset"
	"dlfs/internal/directory"
	"dlfs/internal/hugepage"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/plan"
	"dlfs/internal/trace"
)

// Config tunes the live client. Zero values take defaults.
type Config struct {
	ChunkSize      int   // sample cache chunk size (default 256 KiB)
	CacheBytes     int64 // sample cache size (default 64 MiB)
	BatchSize      int   // samples per NextBatch (default 32)
	Prefetchers    int   // concurrent chunk fetchers (default 4)
	Window         int   // resident units to randomise across (default 8)
	ReadCacheBytes int64 // ReadSample V-bit cache budget (default 8 MiB; <0 disables)

	// Coordinator knobs (cluster mounts only).
	CoordWaitTimeout time.Duration // collective wait bound (default 60s; <0 disables)

	// Pipeline knobs.
	QueuePairs    int   // connections per target, commands striped across them (default 2)
	CoalesceBytes int64 // max bytes merged into one vectored wire read (default 1 MiB)

	// Clairvoyant cross-epoch prefetch: once an epoch's dispatcher has
	// handed out all fetch groups, a background round fetches the *next*
	// epoch's predicted unit slice (the seeded order is deterministic,
	// and the next epoch's seed is taken to be this one's plus one) into a
	// bounded lookahead store, so the next epoch opens warm.
	CrossEpochPrefetch  bool  // enable the lookahead round
	PrefetchBudgetBytes int64 // lookahead store budget (default 16 MiB; <0 disables)

	// Near-data sample assembly (nvmetcp opReadSamples): fetch groups
	// are posted as offload commands whose responses carry exactly the
	// samples' post-transform bytes — the target assembles each record
	// from its extents, so chunk padding and edge-sample overfetch never
	// cross the NIC and offloaded units skip the client copy stage
	// entirely. A target that does not speak the opcode (rolling
	// upgrade) is downgraded per-target to the vectored chunk path.
	ServerAssembly    bool // offload sample extraction to the targets
	AssemblyTransform int  // nvmetcp transform ID applied target-side (default 0 = none; <0 normalized to -1 = none)

	// Cooperative peer cache (cluster mounts only): each rank hosts a
	// peercache service over its read cache; ReadSample misses ask the
	// owning peer before the origin target. Must be set identically on
	// every rank (the mount runs one extra allgather when enabled).
	PeerCache        bool          // enable the peer sample service + peer-first misses
	PeerCacheListen  string        // peer service listen address (default "127.0.0.1:0")
	PeerFetchTimeout time.Duration // peer dial + round-trip bound (default 500ms; <0 disables)

	// Observability knobs.
	StageHistograms bool                // record per-stage latency histograms (prep/post/poll/copy, ReadSample, mount phases)
	Trace           *trace.WallRecorder // wall-clock pipeline trace: post/complete/emit/free events (nil disables)

	// Multi-tenancy: the tenant id stamped on every command this mount
	// submits. Zero is the legacy/default tenant, so single-tenant
	// deployments need no configuration; ids above nvmetcp.MaxTenantID
	// are rejected at connect. A throttled command (tenant over its
	// target-side quota) is retried after the target's hint — it is
	// backpressure, not a failure, and never trips the circuit breaker.
	Tenant int // tenant id on the wire (default 0 = legacy tenant; negative normalized to 0)

	// Resilience knobs.
	DialTimeout      time.Duration // target dial + handshake bound (default 5s)
	RequestTimeout   time.Duration // per-command deadline (default 10s; <0 disables)
	MaxRetries       int           // transport retries per operation (default 4)
	RetryBaseDelay   time.Duration // backoff base (default 5ms)
	RetryMaxDelay    time.Duration // backoff cap (default 500ms)
	BreakerThreshold int           // consecutive failures to open a breaker (default 3)
	BreakerCooldown  time.Duration // open → half-open probe delay (default 500ms)
	AllowDegraded    bool          // skip down targets instead of failing the epoch
}

// withDefaults resolves zero values to defaults. A few knobs
// distinguish "unset" from "off": RequestTimeout, ReadCacheBytes,
// PrefetchBudgetBytes and PeerFetchTimeout (and the cluster-only
// CoordWaitTimeout) treat zero as "take the default" and any negative
// value as "disabled". Negative values are normalized to the canonical
// sentinel -1 so downstream comparisons (and tests) see one disabled
// representation regardless of which negative the caller passed. Every
// other knob treats all non-positive values as unset.
func (c Config) withDefaults() Config {
	orDefault(&c.ChunkSize, 256<<10)
	orDefault(&c.CacheBytes, 64<<20)
	orDefault(&c.BatchSize, 32)
	orDefault(&c.Prefetchers, 4)
	orDefault(&c.Window, 8)
	orOff(&c.ReadCacheBytes, 8<<20)
	orOff(&c.CoordWaitTimeout, 60*time.Second)
	orDefault(&c.QueuePairs, 2)
	orDefault(&c.CoalesceBytes, 1<<20)
	orOff(&c.PrefetchBudgetBytes, 16<<20)
	c.AssemblyTransform = max(c.AssemblyTransform, -1)
	if c.PeerCacheListen == "" {
		c.PeerCacheListen = "127.0.0.1:0"
	}
	orOff(&c.PeerFetchTimeout, 500*time.Millisecond)
	orDefault(&c.DialTimeout, 5*time.Second)
	orOff(&c.RequestTimeout, 10*time.Second)
	orDefault(&c.MaxRetries, 4)
	orDefault(&c.RetryBaseDelay, 5*time.Millisecond)
	orDefault(&c.RetryMaxDelay, 500*time.Millisecond)
	orDefault(&c.BreakerThreshold, 3)
	orDefault(&c.BreakerCooldown, 500*time.Millisecond)
	c.Tenant = max(c.Tenant, 0)
	return c
}

// orDefault gives a knob that is unset (not positive) its default.
func orDefault[T int | int64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// orOff is orDefault for a knob that can be switched off: zero takes the
// default, any negative value becomes the canonical -1.
func orOff[T int64 | time.Duration](v *T, def T) {
	if *v == 0 {
		*v = def
	} else if *v < 0 {
		*v = -1
	}
}

// FS is a live DLFS client bound to a set of TCP targets.
type FS struct {
	cfg      Config
	ds       *dataset.Dataset
	dir      *directory.Directory
	targets  []*target
	counters *metrics.Resilience
	pipe     *metrics.Pipeline
	pool     *bufpool.Pool
	scache   *sampleCache // nil when ReadCacheBytes < 0
	arena    *hugepage.Blocking
	placed   []plan.Placed
	nodeOf   []uint16
	keyIdx   map[uint64]int
	shardLen []int64     // per node: its shard is the byte range [0, shardLen[n])
	unitPlan []unit      // sorted by (node, offset); epochs copy it, never touch it
	keys     []uint64    // per sample: its directory key (see place)
	landMin  int64       // perSampleLanding; only the landing sweep sets it otherwise
	closed   atomic.Bool // atomic: the peer-cache server races remote requests against Close

	prefetchState // cross-epoch lookahead (Config.CrossEpochPrefetch)

	// Cluster state (zero/nil on a single-node Mount).
	rank   int
	world  int
	coord  *coord.ClusterClient
	mstats *metrics.Mount
	peers  *peerSet // cooperative peer cache (Config.PeerCache)
}

// Errors.
var (
	ErrNotFound = errors.New("live: no such sample")
	ErrClosed   = errors.New("live: file system closed")
)

// Mount connects to the targets, uploads each target's hash-shard of the
// dataset, and builds the replicated directory — dlfs_mount over real
// sockets. Each target is dialled Config.QueuePairs times. The caller
// owns closing the returned FS.
func Mount(addrs []string, ds *dataset.Dataset, cfg Config) (*FS, error) {
	fs, err := open(addrs, ds, cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	if err := fs.mount(); err != nil {
		fs.Close() //nolint:errcheck
		return nil, err
	}
	return fs, nil
}

// open dials the targets and returns an FS that owns the connections:
// from here on, whatever step of a mount fails, Close undoes it.
func open(addrs []string, ds *dataset.Dataset, cfg Config) (*FS, error) {
	counters := &metrics.Resilience{}
	targets, err := dialTargets(addrs, cfg, counters)
	if err != nil {
		return nil, err
	}
	return &FS{
		cfg:      cfg,
		ds:       ds,
		targets:  targets,
		counters: counters,
		pipe:     &metrics.Pipeline{},
		pool:     bufpool.New(),
		landMin:  perSampleLanding,
		world:    1,
	}, nil
}

// mount is the single-node dlfs_mount: this client owns every shard.
func (fs *FS) mount() error {
	parts, err := fs.load(allNodes)
	if err != nil {
		return err
	}
	if fs.dir, err = directory.New(parts); err != nil {
		return err
	}
	return fs.finishSetup()
}

// dialTargets opens a queue-pair group per target address, closing any
// already-open groups on failure.
func dialTargets(addrs []string, cfg Config, counters *metrics.Resilience) ([]*target, error) {
	if len(addrs) == 0 {
		return nil, errors.New("live: no targets")
	}
	if cfg.ServerAssembly {
		if x := cfg.AssemblyTransform; x > 0 {
			if x > 255 || !nvmetcp.TransformValid(byte(x)) {
				return nil, fmt.Errorf("live: unknown assembly transform %d", x)
			}
			if nvmetcp.TransformOutLen(byte(x), 1) < 0 {
				return nil, fmt.Errorf("live: assembly transform %s has data-dependent output size; the epoch pipeline needs sized destinations",
					nvmetcp.TransformName(byte(x)))
			}
		}
	}
	opt := nvmetcp.Options{DialTimeout: cfg.DialTimeout, RequestTimeout: cfg.RequestTimeout, Tenant: cfg.Tenant}
	targets := make([]*target, len(addrs))
	for i, a := range addrs {
		qp, err := nvmetcp.NewQPGroup(a, cfg.QueuePairs, opt, nvmetcp.RetryPolicy{
			MaxRetries: cfg.MaxRetries,
			BaseDelay:  cfg.RetryBaseDelay,
			MaxDelay:   cfg.RetryMaxDelay,
			Seed:       int64(i) + 1,
		}, counters)
		if err != nil {
			for _, prev := range targets[:i] {
				prev.qp.Close() //nolint:errcheck
			}
			return nil, fmt.Errorf("live: target %s: %w", a, err)
		}
		targets[i] = &target{
			addr: a,
			qp:   qp,
			brk:  newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, counters),
		}
	}
	return targets, nil
}

// finishSetup attaches the sample cache arena, stage histograms and read
// cache configured by cfg, and builds the unit plan.
func (fs *FS) finishSetup() error {
	arena, err := hugepage.NewArena(fs.cfg.CacheBytes, fs.cfg.ChunkSize)
	if err != nil {
		return err
	}
	fs.arena = hugepage.NewBlocking(arena)
	if fs.cfg.StageHistograms {
		fs.pipe.Hist = &metrics.PipelineHist{}
	}
	if fs.cfg.ReadCacheBytes > 0 {
		fs.scache = newSampleCache(fs.cfg.ReadCacheBytes, fs.pipe, fs.alloc, fs.Recycle, fs.setV)
	}
	if fs.cfg.CrossEpochPrefetch && fs.cfg.PrefetchBudgetBytes > 0 {
		fs.prefetch = newPrefetchStore(fs.cfg.PrefetchBudgetBytes, fs.pipe, fs.Recycle)
	}
	fs.prefetchStop = make(chan struct{})
	return fs.planUnits()
}

// Directory exposes the sample directory.
func (fs *FS) Directory() *directory.Directory { return fs.dir }

// Pipeline exposes the per-stage pipeline counters.
func (fs *FS) Pipeline() *metrics.Pipeline { return fs.pipe }

// alloc takes a buffer of length n from the pool.
func (fs *FS) alloc(n int) []byte { return fs.pool.Get(n) }

// Recycle returns a buffer previously handed out by ReadSample,
// ReadName, or NextBatch to the pool; the caller owned it until now and
// must not touch it afterwards. Optional: callers that drop buffers on
// the floor just pay the allocator again on the next read.
func (fs *FS) Recycle(b []byte) {
	if b != nil {
		fs.pool.Put(b)
	}
}

// RecycleItems recycles every item's payload and nils the slices so a
// training loop can return a whole mini-batch in one call. The items
// slice itself stays the caller's.
func (fs *FS) RecycleItems(items []Item) {
	for i := range items {
		fs.Recycle(items[i].Data)
		items[i].Data = nil
	}
}

// ReadSample reads one sample synchronously by dataset index (the
// dlfs_open/read/close path), serving repeats from the sharded V-bit
// read cache. The returned buffer is caller-owned; hand it back via
// Recycle to keep the hot path allocation-free. When the sample's
// target breaker is open the read fails fast with an error matching
// ErrDegraded.
func (fs *FS) ReadSample(idx int) ([]byte, error) {
	if fs.closed.Load() {
		return nil, ErrClosed
	}
	if idx < 0 || idx >= fs.ds.Len() {
		return nil, fmt.Errorf("%w: index %d", ErrNotFound, idx)
	}
	// Clock reads are gated on the histogram being enabled so the
	// disabled hot path stays exactly as cheap as before.
	var start time.Time
	hist := fs.pipe.Hist
	if hist != nil {
		start = time.Now()
	}
	if fs.scache != nil {
		if hit := fs.scache.get(idx); hit != nil {
			if hist != nil {
				hist.Read.Observe(time.Since(start))
			}
			return hit, nil
		}
	}
	// Cooperative peer cache: the sample's owner is the rank whose
	// target stores it, so a non-owner asks that peer before touching
	// the origin wire; any peer failure falls through to origin.
	if fs.peers != nil {
		if owner := int(fs.nodeOf[idx]); owner != fs.rank {
			if buf := fs.peerFetch(owner, idx, int(fs.placed[idx].Len)); buf != nil {
				if fs.scache != nil {
					fs.scache.put(idx, buf)
				}
				if hist != nil {
					hist.Read.Observe(time.Since(start))
				}
				return buf, nil
			}
		}
	}
	buf, err := fs.readOrigin(idx)
	if err == nil && hist != nil {
		hist.Read.Observe(time.Since(start))
	}
	return buf, err
}

// readOrigin reads sample idx from the target that stores it, through
// that target's breaker, and leaves a copy in the read cache.
func (fs *FS) readOrigin(idx int) ([]byte, error) {
	pl := fs.placed[idx]
	buf := fs.alloc(int(pl.Len))
	c := nvmetcp.Command{Op: nvmetcp.OpRead, Buf: buf, Off: pl.Offset}
	if err := fs.targets[fs.nodeOf[idx]].send(true, nil, nil, c); err != nil {
		fs.Recycle(buf)
		return nil, err
	}
	fs.pipe.OriginReads.Add(1)
	fs.pipe.OriginBytes.Add(int64(pl.Len))
	if fs.scache != nil {
		fs.scache.put(idx, buf)
	}
	return buf, nil
}

// CacheHits reports ReadSample requests served from the read cache.
func (fs *FS) CacheHits() int64 { return fs.pipe.CacheHits.Load() }

func (fs *FS) setV(idx int, v bool) {
	_, ref, _, ok := fs.dir.Lookup(fs.keys[idx])
	if ok {
		fs.dir.SetV(ref, v)
	}
}

// ReadName resolves a sample name through the directory and reads it.
func (fs *FS) ReadName(name string, attrs ...string) ([]byte, error) {
	e, _, _, ok := fs.dir.LookupName(name, attrs...)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	idx, ok := fs.keyIdx[e.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return fs.ReadSample(idx)
}

// Close tears down the target connections, stops the cross-epoch
// prefetcher and peer-cache service, and, on a cluster mount, departs
// the coordinator.
func (fs *FS) Close() error {
	if fs.closed.Swap(true) {
		return nil
	}
	if fs.prefetchStop != nil {
		close(fs.prefetchStop) // abort any in-flight lookahead round
	}
	var err error
	for _, tg := range fs.targets {
		if cerr := tg.qp.Close(); err == nil {
			err = cerr
		}
	}
	// Closed queue pairs fail any blocked prefetch read, so this wait is
	// bounded by one command completion.
	fs.prefetchWG.Wait()
	if fs.prefetch != nil {
		fs.prefetch.drain()
	}
	if fs.peers != nil {
		fs.peers.close()
	}
	if fs.coord != nil {
		if cerr := fs.coord.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Item is one delivered sample. Data is a pool buffer the receiver owns:
// Recycle may take it back, or the receiver may keep or drop it.
type Item struct {
	Index int
	Data  []byte
}

// unit is the fetch granule: the span of one chunk's complete samples,
// or one edge sample (DESIGN.md §9). node, offset, length and samples
// are the mount's plan; the rest is the state of the one epoch or
// lookahead round that copied it.
type unit struct {
	seq     int // position in this epoch's (sliced) fetch order, for tracing
	node    uint16
	offset  int64
	length  int32
	samples []plan.Placed
	chunks  []*hugepage.Chunk
	next    int

	// assembled holds per-sample pool buffers (parallel to samples) when
	// each record landed on its own: a large-sample unit (perSample), or
	// one the target assembled or a peer served. There are no chunks to
	// copy from and NextBatch hands the buffers out directly. Entries are
	// nil'ed as they are emitted; the unit owns the remainder.
	assembled [][]byte

	// raw holds the unit's byte range in one pool buffer: where a
	// lookahead round lands a chunk-path unit on its way to the store.
	raw []byte
}

// chunkCount returns how many cache chunks the unit spans.
func (u *unit) chunkCount(cs int) int { return (int(u.length) + cs - 1) / cs }

// perSampleLanding is the mean sample size from which a unit's wire read
// scatters each sample into the pool buffer NextBatch hands out: a
// segment per sample costs less than a memcpy pass from 32 KiB up
// (BenchmarkLandingSweep, DESIGN.md §9). FS.landMin holds it.
const perSampleLanding = 32 << 10

func (fs *FS) perSample(u *unit) bool {
	return int64(u.length) >= fs.landMin*int64(len(u.samples))
}

// slots cuts u.assembled, a slot per sample, off a group's slab and
// returns the rest.
func (u *unit) slots(slab [][]byte) [][]byte {
	n := len(u.samples)
	u.assembled = slab[:n:n]
	return slab[n:]
}

// fetchGroup is a set of same-target units coalesced into one wire read.
type fetchGroup struct {
	units []*unit
}

// Epoch is a chunk-batched pass over the dataset, driven by background
// prefetchers.
type Epoch struct {
	fs    *FS
	rng   *rand.Rand
	ready chan *unit
	errCh chan error

	abort     chan struct{}
	abortOnce sync.Once

	skipped  atomic.Int64 // samples skipped in degraded mode
	degMu    sync.Mutex
	degNodes map[int]struct{}

	resident    []*unit
	copying     time.Time // when the open stretch of copies began; zero when none is (see endCopies)
	total       int
	emitted     int
	failed      error
	readyClosed bool
	finished    bool
}

// Sequence starts an epoch with the given seed (dlfs_sequence +
// chunk-level batching). The shuffled unit order is known up front, so
// the dispatcher looks 2*Window units ahead and merges same-target
// neighbours into vectored fetch groups before handing them to the
// Prefetchers workers — sequence-driven prefetch with request
// coalescing. Background fetchers start immediately.
func (fs *FS) Sequence(seed int64) (*Epoch, error) {
	return fs.sequenceRange(seed, 0, 1, 0, -1)
}

// planUnits builds the unit plan from the placement. The paper's chunk
// grid decides which samples share a unit and which are edges; a chunk
// unit then reads the span of its complete samples, not the grid cell,
// so every sample byte is in exactly one unit, no unit holds anything
// else, and an epoch pulls the dataset's bytes once. The plan is a pure
// function of the mount. Sorted by (node, offset), a total order because
// the ranges are disjoint, it is where every seeded shuffle starts, so
// the slice a rank consumes depends only on the seed and the placement.
func (fs *FS) planUnits() error {
	layout := &plan.Layout{NodeSamples: make([][]plan.Placed, len(fs.targets)), ChunkSize: int64(fs.cfg.ChunkSize)}
	for idx, pl := range fs.placed { // index order is offset order on every node
		nid := fs.nodeOf[idx]
		layout.NodeSamples[nid] = append(layout.NodeSamples[nid], pl)
	}
	cp, err := plan.BuildChunkPlan(layout)
	if err != nil {
		return err
	}
	units := make([]unit, 0, len(cp.Chunks)+len(cp.Edges))
	for i := range cp.Chunks {
		c := &cp.Chunks[i]
		off, n := c.Span()
		units = append(units, unit{node: c.Node, offset: off, length: n, samples: c.Samples})
	}
	edges := make([]plan.Placed, len(cp.Edges))
	for i, e := range cp.Edges {
		edges[i] = e.Placed
		units = append(units, unit{node: e.Node, offset: e.Placed.Offset, length: e.Placed.Len, samples: edges[i : i+1 : i+1]})
	}
	sort.Slice(units, func(i, j int) bool {
		if units[i].node != units[j].node {
			return units[i].node < units[j].node
		}
		return units[i].offset < units[j].offset
	})
	fs.unitPlan = units
	return nil
}

// epochUnits copies the plan into one slab of per-epoch unit state,
// shuffles it by seed, restricts it to units [lo, hi) of the global
// order (hi < 0 means the end) and keeps the rank-th of world slices of
// that range. Assignment within the range is cut-relative — unit i goes
// to rank (i-lo) % world — so after an elastic membership change the
// survivors can repartition exactly the unconsumed suffix among
// themselves (DESIGN.md §13). An epoch and the lookahead round that
// predicts it both call this, so the prediction cannot diverge.
func (fs *FS) epochUnits(seed int64, rank, world, lo, hi int) []unit {
	units := make([]unit, len(fs.unitPlan))
	copy(units, fs.unitPlan)
	rand.New(rand.NewSource(seed)).Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
	if hi < 0 || hi > len(units) {
		hi = len(units)
	}
	if lo > hi {
		lo = hi
	}
	units = units[lo:hi]
	if world > 1 {
		n := 0
		for i := rank; i < len(units); i += world {
			units[n] = units[i]
			n++
		}
		units = units[:n]
	}
	for i := range units {
		units[i].seq = i
	}
	return units
}

// sequenceRange starts the fetch pipeline over the rank-th of world
// slices of units [lo, hi) of the seeded global order (see epochUnits;
// 0 of 1 over [0, -1) is the whole epoch). The unit plan and the shuffle
// derive only from the seed and the deterministic placement, so every
// rank of a cluster job computes the identical global order and units
// are assigned to ranks with no coordination.
func (fs *FS) sequenceRange(seed int64, rank, world, lo, hi int) (*Epoch, error) {
	if fs.closed.Load() {
		return nil, ErrClosed
	}
	// Cross-epoch prefetch only predicts full-range epochs: a mid-epoch
	// cut (reshard) changes the assignment rule, so lookahead for it
	// would be guessing.
	fullRange := lo == 0 && hi < 0
	units := fs.epochUnits(seed, rank, world, lo, hi)
	total := 0
	for i := range units {
		total += len(units[i].samples)
	}
	ep := &Epoch{
		fs:       fs,
		rng:      rand.New(rand.NewSource(seed ^ 0x9E3779B9)),
		ready:    make(chan *unit, fs.cfg.Window),
		errCh:    make(chan error, 1),
		abort:    make(chan struct{}),
		degNodes: make(map[int]struct{}),
		total:    total,
	}
	go func() {
		fs.pump(units, ep.abort, ep.fetch)
		// Every group of this epoch is fetched, so the queue pairs idle
		// while the consumer drains the last window: the lookahead round
		// starts here. Not before the workers are done: a round that
		// parks a unit while this epoch's entry for the same unit still
		// waits to be taken is refused as a duplicate, and the next epoch
		// then finds that unit missing.
		if fs.prefetch != nil && fullRange {
			fs.maybePrefetch(seed+1, rank, world) // the conventional per-epoch reseed
		}
		close(ep.ready)
	}()
	return ep, nil
}

// pump is the fetch engine, the one an epoch and a lookahead round both
// run on: Prefetchers workers hand each coalesced group to fetch while
// the caller's goroutine walks units through the coalescer. It returns
// when every group is fetched. Closing stop makes the coalescer drop
// what it has not handed out; fetch may return false, which retires its
// worker, only once stop is closed.
func (fs *FS) pump(units []unit, stop <-chan struct{}, fetch func(*fetchGroup) bool) {
	work := make(chan *fetchGroup)
	var wg sync.WaitGroup
	for w := 0; w < fs.cfg.Prefetchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range work {
				if !fetch(g) {
					return
				}
			}
		}()
	}
	fs.dispatch(units, work, stop)
	close(work)
	wg.Wait()
}

// dispatch walks the shuffled unit order, merging each unit with
// not-yet-taken same-target units within a lookahead window of 2*Window
// units, bounded by CoalesceBytes and half the arena (so blocking
// group allocations always complete). A unit too large for the caps
// still ships as its own group.
func (fs *FS) dispatch(units []unit, work chan<- *fetchGroup, stop <-chan struct{}) {
	cs := fs.cfg.ChunkSize
	maxChunks := fs.arena.Arena().NumChunks() / 2
	if maxChunks < 1 {
		maxChunks = 1
	}
	taken := make([]bool, len(units))
	// A group is complete before the next begins and every unit lands in
	// exactly one, so the groups and their unit lists are cut from two
	// slabs that never grow.
	groups := make([]fetchGroup, 0, len(units))
	members := make([]*unit, 0, len(units))
	for i := range units {
		if taken[i] {
			continue
		}
		taken[i] = true
		first := len(members)
		members = append(members, &units[i])
		bytes := int64(units[i].length)
		chunks := units[i].chunkCount(cs)
		for j := i + 1; j < len(units) && j <= i+2*fs.cfg.Window; j++ {
			if taken[j] || units[j].node != units[i].node {
				continue
			}
			cb := int64(units[j].length)
			cc := units[j].chunkCount(cs)
			if bytes+cb > fs.cfg.CoalesceBytes || chunks+cc > maxChunks {
				continue
			}
			taken[j] = true
			members = append(members, &units[j])
			bytes += cb
			chunks += cc
		}
		groups = append(groups, fetchGroup{units: members[first:len(members):len(members)]})
		g := &groups[len(groups)-1]
		if len(g.units) > 1 {
			fs.pipe.CoalescedUnits.Add(int64(len(g.units) - 1))
		}
		select {
		case work <- g:
		case <-stop:
		}
	}
}

// fetch is an epoch's side of the engine: bring one group into the cache
// and hand its units to the consumer. In degraded mode a group on a down
// target is skipped; any other failure ends the epoch.
func (ep *Epoch) fetch(g *fetchGroup) bool {
	fs := ep.fs
	err := ep.fetchGroup(g)
	switch {
	case err == nil:
		for gi, u := range g.units {
			select {
			case ep.ready <- u:
			case <-ep.abort:
				for _, v := range g.units[gi:] {
					fs.freeUnit(v)
				}
				return false
			}
		}
	case fs.cfg.AllowDegraded && degradable(err):
		for _, u := range g.units {
			ep.noteSkip(u)
		}
	default:
		select {
		case ep.errCh <- err:
		default:
		}
		ep.abortOnce.Do(func() { close(ep.abort) })
		return false
	}
	return true
}

// noteSkip records a unit dropped in degraded mode.
func (ep *Epoch) noteSkip(u *unit) {
	ep.skipped.Add(int64(len(u.samples)))
	ep.fs.counters.DegradedSamples.Add(int64(len(u.samples)))
	ep.degMu.Lock()
	ep.degNodes[int(u.node)] = struct{}{}
	ep.degMu.Unlock()
}

// degradedNodes returns the sorted set of nodes skipped so far.
func (ep *Epoch) degradedNodes() []int {
	ep.degMu.Lock()
	nodes := make([]int, 0, len(ep.degNodes))
	for n := range ep.degNodes {
		nodes = append(nodes, n)
	}
	ep.degMu.Unlock()
	sort.Ints(nodes)
	return nodes
}

// fetchGroup brings a coalesced group into cache chunks: lookahead
// store hits are copied straight in (no wire), the remainder goes
// through the wire routine. A wire failure releases every chunk of
// the group — including store-served ones — before returning so
// degraded skips never leak arena memory.
func (ep *Epoch) fetchGroup(g *fetchGroup) error {
	fs := ep.fs
	misses := g.units
	if fs.prefetch != nil {
		misses = ep.serveFromStore(g)
		if len(misses) == 0 {
			return nil
		}
	}
	if err := fs.fetchWire(misses, false); err != nil {
		for _, u := range g.units {
			fs.freeUnit(u)
		}
		return err
	}
	return nil
}

// freeUnit releases whatever payload a unit holds — arena cache chunks,
// server-assembled sample buffers or a raw range — after a failure or
// abort.
func (fs *FS) freeUnit(u *unit) {
	if u.chunks != nil {
		fs.arena.Free(u.chunks)
		u.chunks = nil
	}
	for _, b := range u.assembled {
		fs.Recycle(b)
	}
	fs.Recycle(u.raw)
	u.assembled, u.raw = nil, nil
}

// assemblySamplesPerCmd is how many sample descriptors one offload
// command carries, an eighth of the protocol's nvmetcp.MaxSampleDescs.
const assemblySamplesPerCmd = 512

// fetchWire is the one wire routine, for epochs and lookahead rounds
// alike: it reads a same-target group of units as one scatter list. A
// unit takes a segment per sample, straight into the pool buffers
// NextBatch hands out (and a round parks as they are), when its samples
// are large (perSample) or the mount has the target assemble. In that
// mode every unit does: each buffer is sized for the transform's output
// and the list goes out as opReadSamples commands of at most
// assemblySamplesPerCmd records, so the units skip arena staging and the
// client copy stage. Otherwise the list is one opReadVec and a unit of
// small samples lands whole: for an epoch (park false) in arena chunks,
// a segment per chunk, for NextBatch to copy from; for a round (park
// true) in one pool buffer, u.raw, which its caller parks in the store.
// Prep builds the list, post puts it on the target's queue pairs, poll
// waits; a crc32c trailer, where the transform left one, is verified and
// stripped. target.send gates the fetch on the breaker and judges the
// outcome; on failure the units hold nothing. A build that turns
// opReadSamples away is no failure: the downgrade is counted and the
// group goes again as chunks.
func (fs *FS) fetchWire(units []*unit, park bool) error {
	tg := fs.targets[units[0].node]
	prep := time.Now()
	cs := fs.cfg.ChunkSize
	cmd := nvmetcp.Command{Op: nvmetcp.OpReadVec}
	if fs.cfg.ServerAssembly && !tg.noAssembly.Load() {
		cmd = nvmetcp.Command{Op: nvmetcp.OpReadSamples, Xform: fs.assemblyTransform()}
	}
	assemble := cmd.Op == nvmetcp.OpReadSamples
	nchunks, nsamples := 0, 0
	for _, u := range units {
		if assemble || fs.perSample(u) {
			nsamples += len(u.samples)
		} else if !park {
			nchunks += u.chunkCount(cs)
		}
	}
	all := fs.arena.AllocN(nchunks)
	slab := make([][]byte, nsamples)
	segs := make([]nvmetcp.Seg, 0, nchunks+nsamples+len(units))
	var bytes int64
	for _, u := range units {
		switch {
		case assemble || fs.perSample(u):
			slab = u.slots(slab)
			for si, pl := range u.samples {
				buf := fs.alloc(nvmetcp.TransformOutLen(cmd.Xform, int(pl.Len)))
				u.assembled[si] = buf
				segs = append(segs, nvmetcp.Seg{Dst: buf, Off: pl.Offset, N: int(pl.Len)})
				bytes += int64(len(buf))
			}
		case park:
			u.raw = fs.alloc(int(u.length))
			segs = append(segs, nvmetcp.Seg{Dst: u.raw, Off: u.offset})
			bytes += int64(u.length)
		default:
			nc := u.chunkCount(cs)
			u.chunks, all = all[:nc:nc], all[nc:]
			for ci, c := range u.chunks {
				segLen := min(cs, int(u.length)-ci*cs)
				segs = append(segs, nvmetcp.Seg{Dst: c.Bytes()[:segLen], Off: u.offset + int64(ci*cs)})
			}
			bytes += int64(u.length)
		}
		if !park {
			fs.cfg.Trace.Record(trace.KindPost, u.seq, u.node, int(u.length))
		}
	}
	var one [1]nvmetcp.Command
	cmds := one[:0]
	per := len(segs)
	if assemble {
		per = assemblySamplesPerCmd
	}
	for lo := 0; lo < len(segs); lo += per {
		cmd.Segs = segs[lo:min(lo+per, len(segs))]
		cmds = append(cmds, cmd)
	}
	var check func() error
	if cmd.Xform == nvmetcp.TransformCRC32C {
		check = func() error { return verifyAssembled(units) }
	}
	post := time.Now()
	var poll time.Time // stays zero when send turns the fetch away unposted
	err := tg.send(true, check, &poll, cmds...)
	if !park && !poll.IsZero() {
		fs.pipe.ObservePrep(post.Sub(prep))
		fs.pipe.ObservePost(poll.Sub(post))
		fs.pipe.ObservePoll(time.Since(poll))
	}
	if err != nil {
		for _, u := range units {
			fs.freeUnit(u)
		}
		if errors.Is(err, errLegacy) {
			fs.pipe.OffloadDowngrades.Add(1)
			return fs.fetchWire(units, park)
		}
		return err
	}
	if assemble {
		fs.pipe.OffloadCmds.Add(int64(len(cmds)))
		fs.pipe.OffloadSamples.Add(int64(len(segs)))
	}
	// A lookahead round's fetch goes on the prefetch counters only: it
	// runs beside the consume window of the epoch before, whose wire reads
	// and stage times must stay that epoch's own.
	if park {
		fs.pipe.PrefetchedUnits.Add(int64(len(units)))
		fs.pipe.PrefetchedBytes.Add(bytes)
		return nil
	}
	// Only what lands in the segments is counted: an assembled response's
	// per-record length block is framing, like capsule headers.
	fs.pipe.WireReads.Add(int64(len(cmds)))
	fs.pipe.WireSegments.Add(int64(len(segs)))
	fs.pipe.WireBytes.Add(bytes)
	for _, u := range units {
		fs.cfg.Trace.Record(trace.KindComplete, u.seq, u.node, int(u.length))
	}
	return nil
}

// assemblyTransform resolves the configured offload transform; the
// canonical negatives (-1) and zero both mean TransformNone.
func (fs *FS) assemblyTransform() byte {
	if fs.cfg.AssemblyTransform <= 0 {
		return nvmetcp.TransformNone
	}
	return byte(fs.cfg.AssemblyTransform)
}

// verifyAssembled checks and strips each record's crc32c trailer in
// place. The stripped body aliases the pooled buffer, so recycling stays
// exact.
func verifyAssembled(units []*unit) error {
	for _, u := range units {
		for si, b := range u.assembled {
			body, ok := nvmetcp.VerifyCRC32C(b)
			if !ok {
				return fmt.Errorf("live: crc32c mismatch on sample %d", u.samples[si].Sample)
			}
			u.assembled[si] = body
		}
	}
	return nil
}

// Total reports the number of samples the epoch plans to deliver.
func (ep *Epoch) Total() int { return ep.total }

// Skipped reports the samples skipped so far in degraded mode.
func (ep *Epoch) Skipped() int { return int(ep.skipped.Load()) }

// NextBatch returns the next mini-batch: random selection across the
// resident window of fetched chunks, sequential within each chunk — the
// copy-thread emission discipline of §III-D2. The slice and every
// Item.Data in it are the caller's: each Data is a buffer from the FS
// pool that the caller may hand back with Recycle/RecycleItems, which
// keeps epochs allocation-free, or simply drop. ok is false when the
// epoch is exhausted. A hard I/O failure surfaces as an error and ends
// the epoch; an epoch that skipped samples in degraded mode keeps
// emitting from healthy targets and reports a *DegradedError (matching
// ErrDegraded) on its final call.
//
// What a sample costs here is: pick, Get, memcpy, store. Everything else
// (the items slice, the clock, the channels) is paid per batch or per
// fetched unit (DESIGN.md §9).
func (ep *Epoch) NextBatch() ([]Item, bool, error) {
	if ep.failed != nil {
		return nil, false, ep.failed
	}
	if ep.finished {
		return nil, false, nil
	}
	fs := ep.fs
	window, chunkSize := fs.cfg.Window, fs.cfg.ChunkSize
	defer ep.endCopies() // however the call returns, its last stretch ends
	// Sized once; the epoch's remainder bounds it, so a BatchSize far
	// beyond the dataset costs nothing.
	items := make([]Item, 0, min(fs.cfg.BatchSize, ep.total-ep.emitted))
	for len(items) < fs.cfg.BatchSize {
		// Refill the resident window. The channels are touched only when
		// their lengths say there is something to take, or when nothing is
		// resident, which is the one case that blocks (and the one that
		// notices a closed ready: the workers are done and the window has
		// drained, so the epoch is over).
		for !ep.readyClosed && (len(ep.resident) == 0 ||
			len(ep.resident) < window && (len(ep.ready) > 0 || len(ep.errCh) > 0)) {
			if len(ep.resident) == 0 {
				ep.endCopies() // a wait is not copying
			}
			select {
			case err := <-ep.errCh:
				ep.failed = err
				return items, false, err
			case u, ok := <-ep.ready:
				if !ok {
					ep.readyClosed = true
				} else {
					ep.resident = append(ep.resident, u)
				}
			}
		}
		if len(ep.resident) == 0 {
			break // epoch exhausted
		}
		k := ep.rng.Intn(len(ep.resident))
		u := ep.resident[k]
		idx := u.next
		pl := u.samples[idx]
		u.next++
		var buf []byte
		if u.assembled != nil {
			// The record landed in a pool buffer of its own — hand it
			// out: no copy stage, so a stretch open in a mixed epoch ends
			// here and holds only copied samples.
			ep.endCopies()
			buf = u.assembled[idx]
			u.assembled[idx] = nil
		} else {
			if ep.copying.IsZero() {
				ep.copying = time.Now()
			}
			buf = fs.alloc(int(pl.Len))
			copyFromChunks(u, pl, buf, chunkSize)
		}
		fs.cfg.Trace.Record(trace.KindEmit, u.seq, u.node, int(pl.Len))
		items = append(items, Item{Index: pl.Sample, Data: buf})
		ep.emitted++
		if u.next == len(u.samples) {
			if u.chunks != nil {
				fs.arena.Free(u.chunks)
				u.chunks = nil
			}
			u.assembled = nil // every entry already handed out
			fs.cfg.Trace.Record(trace.KindFree, u.seq, u.node, 0)
			ep.resident = append(ep.resident[:k], ep.resident[k+1:]...)
		}
	}
	if len(items) == 0 {
		ep.finished = true
		if sk := ep.skipped.Load(); sk > 0 {
			fs.counters.DegradedBatches.Add(1)
			return nil, false, &DegradedError{Samples: int(sk), Nodes: ep.degradedNodes()}
		}
		return nil, false, nil
	}
	if ep.skipped.Load() > 0 {
		fs.counters.DegradedBatches.Add(1)
	}
	return items, true, nil
}

// endCopies closes the open stretch of copies, if there is one. The copy
// stage is timed per stretch of consecutive copies, not per sample: a
// clock pair around a 1 KiB memcpy costs as much as the memcpy.
func (ep *Epoch) endCopies() {
	if !ep.copying.IsZero() {
		ep.fs.pipe.ObserveCopy(time.Since(ep.copying))
		ep.copying = time.Time{}
	}
}

func copyFromChunks(u *unit, pl plan.Placed, dst []byte, chunkSize int) {
	off := pl.Offset - u.offset
	copied := 0
	for copied < int(pl.Len) {
		pos := off + int64(copied)
		ci := int(pos) / chunkSize
		within := int(pos) % chunkSize
		copied += copy(dst[copied:int(pl.Len)], u.chunks[ci].Bytes()[within:])
	}
}

// Drain consumes the whole epoch and returns all items. In degraded mode
// the returned error is a *DegradedError describing what was skipped;
// every returned item is still intact.
func (ep *Epoch) Drain() ([]Item, error) {
	var all []Item
	for {
		items, ok, err := ep.NextBatch()
		all = append(all, items...)
		if err != nil {
			return all, err
		}
		if !ok {
			return all, nil
		}
	}
}
