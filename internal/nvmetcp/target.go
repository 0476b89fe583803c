package nvmetcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dlfs/internal/blockdev"
	"dlfs/internal/bufpool"
	"dlfs/internal/metrics"
)

// Config tunes the target's serving engine. The zero value selects the
// defaults; NewTarget(store, depth) remains the one-knob constructor.
type Config struct {
	// Depth bounds per-connection outstanding commands. It is advertised
	// to the initiator at handshake and sizes each connection's
	// completion queue. Default 64.
	Depth int

	// Workers sizes the request-posting-queue worker pool shared by all
	// connections on this target — the per-store RPQ drain of the
	// paper's §III-C backend. Default 4.
	Workers int

	// QueueDepth bounds the request-posting queue. When it fills,
	// connection readers block instead of spawning goroutines, so
	// overload pushes back on the TCP window rather than on the Go
	// scheduler. Default 256.
	//
	// Deprecated-in-spirit: with the per-tenant scheduler the engine
	// bound is TenantQueueDepth per tenant; QueueDepth is kept as the
	// legacy single-queue knob and seeds TenantQueueDepth when that is
	// unset, so existing configurations keep their backpressure point.
	QueueDepth int

	// MaxTenants is the number of tenant ids this target provisions:
	// commands carrying tenant 0..MaxTenants-1 are accepted, anything
	// above (or above the protocol's MaxTenantID) is rejected with
	// statusTenant. Default 8; capped at MaxTenantID+1.
	MaxTenants int

	// TenantQueueDepth bounds each tenant's request queue. When a
	// tenant's queue fills, only that tenant's connection readers block
	// — its overload pushes back on its own TCP windows while other
	// tenants keep posting. Zero takes QueueDepth/4 (min 64) so legacy
	// QueueDepth configurations keep an equivalent aggregate bound;
	// negative disables the bound (normalized to the canonical -1).
	TenantQueueDepth int

	// TenantBytesPerSec is the per-tenant payload byte quota enforced at
	// admission by a token bucket with a one-second burst allowance.
	// Commands over budget are rejected with statusThrottled and a
	// retry-after hint rather than queued. Zero or negative disables
	// (normalized to the canonical -1).
	TenantBytesPerSec int64

	// TenantIOPS is the per-tenant command-rate quota, enforced like
	// TenantBytesPerSec. Zero or negative disables (normalized to the
	// canonical -1).
	TenantIOPS int64

	// WriteTimeout bounds one completion flush to a connection. A peer
	// that stops reading long enough to trip it has its connection
	// aborted, so a stuck client cannot wedge the shared worker pool.
	// Default 30s; negative disables.
	WriteTimeout time.Duration

	// StageHistograms records per-stage latency distributions
	// (qwait/service/flush) into metrics.ServerHist in addition to the
	// always-on counters. Off by default: the disabled path adds nothing
	// beyond the existing counter arithmetic.
	StageHistograms bool
}

func (c Config) withDefaults() Config {
	orDefault(&c.Depth, 64)
	orDefault(&c.Workers, 4)
	orDefault(&c.QueueDepth, 256)
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	orDefault(&c.MaxTenants, 8)
	c.MaxTenants = min(c.MaxTenants, MaxTenantID+1)
	if c.TenantQueueDepth == 0 {
		c.TenantQueueDepth = max(c.QueueDepth/4, 64)
	} else if c.TenantQueueDepth < 0 {
		c.TenantQueueDepth = -1
	}
	if c.TenantBytesPerSec <= 0 {
		c.TenantBytesPerSec = -1
	}
	if c.TenantIOPS <= 0 {
		c.TenantIOPS = -1
	}
	return c
}

// Target exports one block store to TCP initiators. Each accepted
// connection is an independent queue pair: commands on it are served
// concurrently up to the negotiated depth, and completions return in
// completion order (not submission order), as on real NVMe.
//
// Internally the data path is a request-posting queue / completion queue
// engine: connection readers admit decoded commands against their
// tenant's quotas and post them onto the tenant's bounded queue; a fixed
// worker pool drains the queues through a deficit-round-robin scheduler,
// executes against the store and hands completions — header plus
// zero-copy store-view segments for reads — to the connection's
// completion queue, which a dedicated flusher drains into coalesced
// vectored writes.
type Target struct {
	store *blockdev.Store
	cfg   Config

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	connWG   sync.WaitGroup // accept loop, readers, flushers, closers
	workerWG sync.WaitGroup
	sched    *drrSched

	crcMemo crcMemo // trailers assembleViews computed, valid for one write epoch

	srv metrics.Server

	served    atomic.Int64
	bytes     atomic.Int64
	accepted  atomic.Int64
	malformed atomic.Int64
	aborted   atomic.Int64 // completions dropped because their conn died

	reads    atomic.Int64 // single-segment read commands served
	writes   atomic.Int64 // write commands served
	vecReads atomic.Int64 // vectored read commands served
	vecSegs  atomic.Int64 // segments carried by those vectored reads

	tenantRejects atomic.Int64 // commands with malformed/unprovisioned tenant ids
}

// rpqItem is one command posted on a tenant's request queue.
type rpqItem struct {
	tc      *targetConn
	ts      *tenantState
	req     capsule // by value: the queue slot is the request's only home
	cost    int64   // estimated payload bytes, the DRR/quota currency
	barrier int64   // opFlush: writes admitted on the connection before it
	enq     time.Time
}

// completion is one finished command on a connection's completion queue:
// a pooled header frame plus at most one payload representation — either
// zero-copy store-view segments or a pooled staged buffer.
type completion struct {
	hdr    *[capsuleHeaderSize]byte
	view   [][]byte // segments aliasing store memory (reads, zero-copy)
	staged []byte   // pooled copy (transforms that build their output / view fallback)
	aux    []byte   // pooled length block leading view, then the records' trailers (opReadSamples)
	xform  byte     // transform the view was assembled under (opReadSamples)
	epoch  uint64   // store write epoch when view was captured
	off    uint64   // request offset, for view re-staging
	vsegs  []vecSeg // vectored request segments, for view re-staging
	n      int      // payload byte count
}

// targetConn is the per-connection engine state.
type targetConn struct {
	conn     net.Conn
	scq      chan completion
	inflight sync.WaitGroup

	// Durability-barrier bookkeeping. wAdmitted counts write commands
	// (opWrite/opWriteVec) the connection's reader has posted onto the
	// scheduler; it is touched only by the reader goroutine, so a flush
	// command's barrier — the admitted count at its own admission — is a
	// plain read. wApplied counts those writes the workers have finished
	// executing against the store (success or failure; a rejected write
	// must not wedge a barrier). An opFlush completes only once
	// wApplied has caught up with its barrier, i.e. once every write
	// submitted before it on this connection has landed.
	wAdmitted int64
	wMu       sync.Mutex
	wCond     sync.Cond // signals wApplied advancing
	wApplied  int64
}

// writeApplied records one admitted write finishing execution and wakes
// any barrier waiting on it.
func (tc *targetConn) writeApplied() {
	tc.wMu.Lock()
	tc.wApplied++
	tc.wMu.Unlock()
	tc.wCond.Broadcast()
}

// awaitWrites blocks until the connection's applied-write count reaches
// barrier, returning how long it waited. Admitted writes are always
// executed — the scheduler drains its queues even through shutdown — so
// the wait terminates.
func (tc *targetConn) awaitWrites(barrier int64) time.Duration {
	start := time.Now()
	tc.wMu.Lock()
	for tc.wApplied < barrier {
		tc.wCond.Wait()
	}
	tc.wMu.Unlock()
	return time.Since(start)
}

// hdrPool recycles completion header frames, as array pointers: a slice
// in a sync.Pool is boxed on every Put.
var hdrPool = sync.Pool{New: func() any { return new([capsuleHeaderSize]byte) }}

// NewTarget wraps a store; depth bounds per-connection concurrency
// (default 64). Engine knobs take their defaults; use NewTargetConfig to
// set them.
func NewTarget(store *blockdev.Store, depth int) *Target {
	return NewTargetConfig(store, Config{Depth: depth})
}

// NewTargetConfig wraps a store with explicit engine configuration and
// starts the worker pool.
func NewTargetConfig(store *blockdev.Store, cfg Config) *Target {
	cfg = cfg.withDefaults()
	t := &Target{
		store: store,
		cfg:   cfg,
		conns: make(map[net.Conn]struct{}),
		sched: newDRRSched(cfg),
	}
	if cfg.StageHistograms {
		t.srv.Hist = &metrics.ServerHist{}
	}
	for i := 0; i < cfg.Workers; i++ {
		t.workerWG.Add(1)
		go t.worker()
	}
	return t
}

// Store returns the exported store.
func (t *Target) Store() *blockdev.Store { return t.store }

// Served reports commands completed and payload bytes moved.
func (t *Target) Served() (cmds, bytes int64) { return t.served.Load(), t.bytes.Load() }

// ConnStats reports connections accepted, connections dropped because of
// a malformed frame (bad magic or an oversized length field), and
// completions aborted because their connection's write path failed while
// sibling commands were still in flight.
func (t *Target) ConnStats() (accepted, malformed, aborted int64) {
	return t.accepted.Load(), t.malformed.Load(), t.aborted.Load()
}

// OpStats reports per-opcode service counts: plain reads, writes,
// vectored read commands and the total segments those carried. The
// segments/vecReads ratio is the coalescing factor observed server-side.
func (t *Target) OpStats() (reads, writes, vecReads, vecSegments int64) {
	return t.reads.Load(), t.writes.Load(), t.vecReads.Load(), t.vecSegs.Load()
}

// ServerStats reports the engine's per-stage counters: queue wait,
// service and flush time, writev batching, and the zero-copy/staged
// payload split.
func (t *Target) ServerStats() metrics.ServerSnapshot { return t.srv.Snapshot() }

// Listen starts serving on addr (e.g. "127.0.0.1:0") and returns the
// bound address. Serving proceeds on background goroutines until Close.
func (t *Target) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.ln = ln
	t.connWG.Add(1)
	go t.acceptLoop()
	return ln.Addr().String(), nil
}

func (t *Target) acceptLoop() {
	defer t.connWG.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close() //nolint:errcheck
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.accepted.Add(1)
		t.connWG.Add(1)
		go t.serveConn(conn)
	}
}

func (t *Target) serveConn(conn net.Conn) {
	defer t.connWG.Done()
	cleanup := func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		conn.Close() //nolint:errcheck
	}

	// Handshake: hello in, hello out with depth and capacity.
	hello, err := readCapsule(conn)
	if err != nil || hello.opcode != opHello {
		if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrTooLarge) {
			t.malformed.Add(1)
		}
		cleanup()
		return
	}
	reply := &capsule{
		cmdID:   uint64(t.store.Capacity()),
		opcode:  opHello,
		offset:  uint64(t.cfg.Depth),
		payload: nil,
	}
	if err := writeCapsule(conn, reply); err != nil {
		cleanup()
		return
	}

	tc := &targetConn{conn: conn, scq: make(chan completion, t.cfg.Depth)}
	tc.wCond.L = &tc.wMu
	t.connWG.Add(1)
	go func() {
		defer t.connWG.Done()
		t.flushLoop(tc)
		cleanup()
	}()

	// Buffered ingestion: a read capsule is 30 bytes, so pulling commands
	// straight off the socket costs two recv syscalls per command. The
	// buffered reader lets one recv ingest every capsule the initiator
	// has queued — the ingestion-side mirror of the flusher's coalesced
	// writev. (Payloads larger than the buffer bypass it, so writes are
	// not double-copied.)
	br := bufio.NewReaderSize(conn, 64<<10)
	rhdr := make([]byte, capsuleHeaderSize)
	for {
		// Request payloads (write data, vec descriptors) come from the
		// shared pool and go back once the command is served.
		var req capsule
		if err := t.readRequest(br, rhdr, &req); err != nil {
			// io.EOF and closed connections are normal teardown; only a
			// malformed frame is worth a log line.
			if errors.Is(err, ErrBadMagic) || errors.Is(err, ErrTooLarge) {
				t.malformed.Add(1)
				log.Printf("nvmetcp: dropping connection: %v", err)
			}
			break
		}
		// Tenant admission runs here on the reader, before any queue or
		// worker state is touched: a rejected command costs one header
		// frame on the completion queue and nothing else. The reader is
		// alive, so tc.scq cannot close under these sends.
		if st := classifyTenant(req.status, t.cfg.MaxTenants); st != statusOK {
			t.tenantRejects.Add(1)
			releaseRequest(&req)
			tc.reject(req.cmdID, req.opcode, st, 0)
			continue
		}
		ts := t.sched.tenants[req.status]
		cost := cmdCost(&req)
		if ra := t.sched.admit(ts, cost); ra > 0 {
			// Over quota: reject with a retry-after hint in the offset
			// field instead of queueing — admission control keeps the
			// worker pool for tenants inside their budget.
			ts.throttled.Add(1)
			releaseRequest(&req)
			tc.reject(req.cmdID, req.opcode, statusThrottled, uint64(ra))
			continue
		}
		tc.inflight.Add(1)
		// A flush's barrier snapshots the writes admitted on this
		// connection so far; it is stamped here, on the reader, so the
		// ordering it promises is exactly the client's submission order.
		it := rpqItem{tc: tc, ts: ts, req: req, cost: cost, enq: time.Now()}
		if req.opcode == opFlush {
			it.barrier = tc.wAdmitted
		}
		if !t.sched.enqueue(ts, it) {
			// Scheduler closed mid-enqueue (target shutdown).
			releaseRequest(&req)
			tc.inflight.Done()
			break
		}
		if req.opcode == opWrite || req.opcode == opWriteVec {
			tc.wAdmitted++
		}
	}
	// No more submissions can arrive. Once in-flight commands drain,
	// close the completion queue so the flusher exits and tears the
	// connection down.
	t.connWG.Add(1)
	go func() {
		defer t.connWG.Done()
		tc.inflight.Wait()
		close(tc.scq)
	}()
}

// readRequest reads one request frame for the engine path. Most opcodes
// land contiguously through the pool; an opWriteVec frame's payload is
// instead ingested descriptor-first as one pooled buffer per segment
// (readWriteVec), so aligned segments can be adopted by the store with
// no landing copy.
func (t *Target) readRequest(r io.Reader, hdr []byte, c *capsule) error {
	hdr = hdr[:capsuleHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != Magic {
		return ErrBadMagic
	}
	*c = capsule{
		cmdID:  binary.LittleEndian.Uint64(hdr[4:12]),
		opcode: hdr[12],
		status: hdr[13],
		offset: binary.LittleEndian.Uint64(hdr[14:22]),
	}
	n := binary.LittleEndian.Uint32(hdr[22:26])
	if n > maxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if c.opcode == opWriteVec && n > 0 {
		return t.readWriteVec(r, c, int(n))
	}
	if n > 0 {
		c.payload = bufpool.Shared.Get(int(n))
		if _, err := io.ReadFull(r, c.payload); err != nil {
			bufpool.Shared.Put(c.payload)
			return err
		}
	}
	return nil
}

// readWriteVec ingests one gathered-write payload of n bytes: caps
// before alloc — the descriptor count, every per-extent length, the
// exact match between descriptor totals and trailing data, and the
// device range are all validated before any segment buffer is
// allocated, so a corrupt frame can neither drive a huge allocation
// nor land a byte. A frame that fails validation is drained to keep the
// stream aligned and completes from the worker with the deferred
// status in c.vecStatus. Each valid segment then lands in its own
// pooled buffer, sized so whole-extent segments are adopted by the
// store as backing arrays instead of being copied.
func (t *Target) readWriteVec(r io.Reader, c *capsule, n int) error {
	bad := func(st byte, consumed int) error {
		c.vecStatus = st
		_, err := io.CopyN(io.Discard, r, int64(n-consumed))
		return err
	}
	if n < writeVecHdrSize {
		return bad(statusBadOp, 0)
	}
	var hb [writeVecHdrSize]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return err
	}
	consumed := writeVecHdrSize
	count := int(binary.LittleEndian.Uint32(hb[0:4]))
	if count <= 0 || count > maxVecSegs || n < writeVecHdrSize+count*vecSegSize {
		return bad(statusBadOp, consumed)
	}
	desc := bufpool.Shared.Get(count * vecSegSize)
	defer bufpool.Shared.Put(desc)
	if _, err := io.ReadFull(r, desc); err != nil {
		return err
	}
	consumed += len(desc)
	want := n - consumed
	segs := make([]vecSeg, count)
	capacity := t.store.Capacity()
	total := 0
	for i := range segs {
		p := i * vecSegSize
		segs[i] = vecSeg{
			off: binary.LittleEndian.Uint64(desc[p : p+8]),
			n:   binary.LittleEndian.Uint32(desc[p+8 : p+12]),
		}
		ln := segs[i].n
		if ln == 0 || int32(ln) < 0 {
			return bad(statusBadOp, consumed)
		}
		if off := int64(segs[i].off); off < 0 || off+int64(ln) > capacity {
			return bad(statusRange, consumed)
		}
		total += int(ln)
		if total > want {
			return bad(statusBadOp, consumed)
		}
	}
	if total != want {
		return bad(statusBadOp, consumed)
	}
	c.vsegs = segs
	c.vecs = make([][]byte, count)
	for i, sg := range segs {
		buf := bufpool.Shared.Get(int(sg.n))
		if _, err := io.ReadFull(r, buf); err != nil {
			bufpool.Shared.Put(buf)
			releaseRequest(c)
			return err
		}
		c.vecs[i] = buf
	}
	return nil
}

// releaseRequest returns a request's pooled buffers once the command is
// served or rejected. Buffers the store adopted were cleared from the
// capsule by execute and stay out of the pool.
func releaseRequest(req *capsule) {
	bufpool.Shared.Put(req.payload)
	for _, b := range req.vecs {
		bufpool.Shared.Put(b)
	}
	req.payload, req.vecs = nil, nil
}

// worker drains the tenant queues through the DRR scheduler: execute
// against the store, then hand the completion to the owning connection's
// queue. The flusher always consumes the queue until it is closed, so
// this send cannot deadlock even when the connection is dead. Stage
// times are observed twice — into the target-wide engine counters and
// into the command's tenant — so per-tenant qwait is first-class.
func (t *Target) worker() {
	defer t.workerWG.Done()
	for {
		it, ok := t.sched.next()
		if !ok {
			return
		}
		qwait := time.Since(it.enq)
		t.srv.ObserveQueueWait(qwait)
		it.ts.srv.ObserveQueueWait(qwait)
		if it.req.opcode == opFlush {
			// Durability barriers park off-pool: the barrier's writes may
			// still be queued behind other tenants, and a worker blocked
			// here could be the one meant to apply them. The goroutine is
			// bounded by the connection's command depth and covered by
			// tc.inflight, so teardown still waits for it.
			go t.completeFlush(it)
			continue
		}
		start := time.Now()
		comp := t.execute(&it.req)
		releaseRequest(&it.req)
		service := time.Since(start)
		t.srv.ObserveService(service)
		it.ts.srv.ObserveService(service)
		it.ts.cmds.Add(1)
		it.ts.bytes.Add(int64(comp.n))
		if it.req.opcode == opWrite || it.req.opcode == opWriteVec {
			it.tc.writeApplied()
		}
		it.tc.scq <- comp
		it.tc.inflight.Done()
	}
}

// completeFlush serves one durability barrier: wait for the
// connection's prior writes to apply, sync the store, and complete.
// Runs on its own goroutine so barrier waits never occupy the worker
// pool (see worker).
func (t *Target) completeFlush(it rpqItem) {
	waited := it.tc.awaitWrites(it.barrier)
	t.srv.ObserveFlushWait(waited)
	start := time.Now()
	comp := t.execute(&it.req)
	releaseRequest(&it.req)
	service := time.Since(start)
	t.srv.ObserveService(service)
	it.ts.srv.ObserveService(service)
	it.ts.cmds.Add(1)
	it.tc.scq <- comp
	it.tc.inflight.Done()
}

// reject synthesizes a payload-free error completion straight onto the
// connection's completion queue, bypassing the scheduler. Only the
// connection's reader calls this, so the queue is guaranteed open; the
// offset field carries the retry-after hint for statusThrottled.
func (tc *targetConn) reject(cmdID uint64, opcode, status byte, offset uint64) {
	hdr := hdrPool.Get().(*[capsuleHeaderSize]byte)
	encodeHdr(hdr[:], cmdID, opcode, status, offset, 0)
	tc.scq <- completion{hdr: hdr}
}

// flushLoop drains one connection's completion queue, coalescing every
// immediately-available completion into a single vectored write so
// syscalls amortise across the queue depth. On a write error it aborts:
// the connection is closed (stopping the reader) and every remaining
// completion is drained, recycled and counted, rather than left to
// execute silently against a dead connection.
func (t *Target) flushLoop(tc *targetConn) {
	batch := make([]completion, 0, t.cfg.Depth)
	var scratch, out net.Buffers // out: WriteTo's receiver escapes, so one per connection, not per flush
	failed := false
	for comp := range tc.scq {
		if failed {
			t.abort(comp)
			continue
		}
		batch = append(batch[:0], comp)
	coalesce:
		for len(batch) < cap(batch) {
			select {
			case more, ok := <-tc.scq:
				if !ok {
					break coalesce // closed; outer range will exit
				}
				batch = append(batch, more)
			default:
				break coalesce
			}
		}
		start := time.Now()
		scratch = scratch[:0]
		pinned := false
		for i := range batch {
			c := &batch[i]
			if c.view != nil && !pinned {
				// Pin before the epoch check: from here until Unpin,
				// writers go copy-on-write instead of mutating extents
				// these views may alias. Seq-cst ordering over the two
				// atomics makes the race two-sided safe — a writer that
				// slipped past our epoch check below must have seen the
				// pin (and cloned), and a writer we miss pinning against
				// must have bumped the epoch first (and we restage).
				pinned = true
				t.store.PinViews()
			}
			// Seqlock check: a write epoch change since view capture
			// means the segments may no longer carry the bytes the
			// command read — re-stage them under the store lock.
			if c.view != nil && t.store.WriteEpoch() != c.epoch {
				t.restage(c)
			}
			scratch = append(scratch, c.hdr[:])
			if c.staged != nil {
				scratch = append(scratch, c.staged)
			} else {
				scratch = append(scratch, c.view...)
			}
		}
		if t.cfg.WriteTimeout > 0 {
			tc.conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout)) //nolint:errcheck
		}
		// Counted before the bytes leave: a client that has its completion
		// in hand must find it in the counters too.
		t.srv.Flushes.Add(1)
		t.srv.FlushedCmds.Add(int64(len(batch)))
		out = scratch // WriteTo consumes its receiver; keep scratch's header
		_, err := out.WriteTo(tc.conn)
		if pinned {
			t.store.UnpinViews()
		}
		t.srv.ObserveFlush(time.Since(start))
		for i := range batch {
			recycleCompletion(&batch[i])
		}
		if err != nil {
			// Count this batch as aborted delivery and stop the reader;
			// keep draining so in-flight workers never block.
			t.aborted.Add(int64(len(batch)))
			failed = true
			tc.conn.Close() //nolint:errcheck
		}
	}
}

// abort recycles a completion that can no longer be delivered.
func (t *Target) abort(comp completion) {
	t.aborted.Add(1)
	recycleCompletion(&comp)
}

func recycleCompletion(c *completion) {
	hdrPool.Put(c.hdr)
	if c.staged != nil {
		bufpool.Shared.Put(c.staged)
	}
	if c.aux != nil {
		bufpool.Shared.Put(c.aux)
	}
	c.hdr, c.staged, c.view, c.aux = nil, nil, nil, nil
}

// segRanges splits a segment list into the parallel offset and length
// lists the store's gathered reads and writes take.
func segRanges(segs []vecSeg) ([]int64, []int) {
	offs := make([]int64, len(segs))
	lens := make([]int, len(segs))
	for i, s := range segs {
		offs[i], lens[i] = int64(s.off), int(s.n)
	}
	return offs, lens
}

// readSegs fills p with the segments' bytes, concatenated, under one
// store lock hold: a gathered write cannot land between two segments,
// so p is a single generation of all of them.
func (t *Target) readSegs(p []byte, segs []vecSeg) error {
	offs, lens := segRanges(segs)
	_, err := t.store.ReadVecAt(p, offs, lens)
	return err
}

// restage replaces a completion's zero-copy view with a pooled copy read
// under one store lock hold, guaranteeing an untorn payload after a
// write epoch change. Offsets were validated when the view was built,
// so the locked re-read cannot fail. A sample-mode view is assembled
// again from scratch, so its length block, records and trailers are one
// generation.
func (t *Target) restage(c *completion) {
	switch {
	case c.aux != nil:
		c.staged, _, _ = t.assembleStaged(c.xform, c.vsegs)
	case c.vsegs != nil:
		c.staged = bufpool.Shared.Get(c.n)
		t.readSegs(c.staged, c.vsegs) //nolint:errcheck
	default:
		c.staged = bufpool.Shared.Get(c.n)
		t.store.ReadAt(c.staged, int64(c.off)) //nolint:errcheck
	}
	c.view = nil
	t.srv.Restaged.Add(1)
}

// assembleViews builds an opReadSamples response of total record bytes
// from seqlock extent views. The only copied bytes are one pooled aux
// block: the length block and, under TransformCRC32C, each record's
// trailer; the scatter list is lenblock, view(rec0)..., trailer0,
// view(rec1)..., trailer1, ... The checksum reads store memory outside
// the lock, so it follows the flusher's protocol (DESIGN.md §10): pin, so
// writers from here on go copy-on-write; an odd epoch is a write in
// flight; an epoch that moved while the views were taken may mean two
// generations. It returns false then, and for a response it cannot
// build at all, and the caller assembles staged (which also names the
// error). After the unpin the flusher's own pin-and-check takes over.
func (t *Target) assembleViews(comp *completion, xform byte, segs []vecSeg, total int) bool {
	lb, tr := 4*len(segs), 0
	if xform == TransformCRC32C {
		tr = 4
		t.store.PinViews()
		defer t.store.UnpinViews()
	}
	n := lb + total + tr*len(segs)
	epoch := t.store.WriteEpoch()
	if n > maxPayload || tr > 0 && epoch&1 == 1 {
		return false
	}
	aux := bufpool.Shared.Get(lb + tr*len(segs))
	view := append(make([][]byte, 0, 1+2*len(segs)), aux[:lb])
	for i, s := range segs {
		binary.LittleEndian.PutUint32(aux[4*i:], s.n+uint32(tr))
		var err error
		if view, _, err = t.store.View(int64(s.off), int(s.n), view); err != nil {
			bufpool.Shared.Put(aux)
			return false
		}
		if tr > 0 {
			view = append(view, aux[lb+tr*i:][:tr])
		}
	}
	if tr > 0 {
		if t.store.WriteEpoch() != epoch {
			bufpool.Shared.Put(aux)
			return false
		}
		// The records are write-once: a trailer computed under this same
		// even epoch is a trailer of these same bytes, so only a record
		// the memo does not hold for this epoch is checksummed where it
		// lies.
		start := time.Now()
		hits, vi := 0, 1
		for _, s := range segs {
			rec := vi
			for rem := int(s.n); rem > 0; vi++ {
				rem -= len(view[vi])
			}
			slot := t.crcMemo.slot(s)
			crc, hit := slot.lookup(s, epoch)
			if hit {
				hits++
			} else {
				for _, v := range view[rec:vi] {
					crc = crc32.Update(crc, crc32cTable, v)
				}
				slot.store(s, epoch, crc)
			}
			binary.LittleEndian.PutUint32(view[vi], crc)
			vi++
		}
		t.srv.ObserveTransform(time.Since(start))
		t.srv.ChecksumMemoHits.Add(int64(hits))
		t.srv.ChecksumMemoMisses.Add(int64(len(segs) - hits))
	}
	comp.view, comp.epoch, comp.vsegs, comp.aux, comp.xform, comp.n = view, epoch, segs, aux, xform, n
	t.srv.ZeroCopyBytes.Add(int64(total))
	return true
}

// assembleStaged builds an opReadSamples response — length block plus
// transformed records — in one pooled staged buffer. The whole record
// list is read under one store lock hold (readSegs), so the records are
// a single generation, transformed output cannot tear, and the response
// never needs re-staging. Returns the buffer, its byte count, and a
// status.
func (t *Target) assembleStaged(xform byte, segs []vecSeg) ([]byte, int, byte) {
	lb := 4 * len(segs)
	inTotal := 0
	for _, s := range segs {
		inTotal += int(s.n)
	}
	if xform == TransformNone {
		if lb+inTotal > maxPayload {
			return nil, 0, statusRange
		}
		buf := bufpool.Shared.Get(lb + inTotal)
		if err := t.readSegs(buf[lb:], segs); err != nil {
			bufpool.Shared.Put(buf)
			return nil, 0, statusRange
		}
		for i, s := range segs {
			binary.LittleEndian.PutUint32(buf[4*i:], s.n)
		}
		return buf, lb + inTotal, statusOK
	}
	src := bufpool.Shared.Get(inTotal)
	defer bufpool.Shared.Put(src)
	if err := t.readSegs(src, segs); err != nil {
		return nil, 0, statusRange
	}
	rest := src // records not yet transformed
	var xt time.Duration
	if TransformOutLen(xform, 0) >= 0 {
		// Fixed output size: transform straight into the response buffer.
		outTotal := 0
		for _, s := range segs {
			outTotal += TransformOutLen(xform, int(s.n))
		}
		if lb+outTotal > maxPayload {
			return nil, 0, statusRange
		}
		buf := bufpool.Shared.Get(lb + outTotal)
		pos := lb
		for i, s := range segs {
			n := int(s.n)
			outn := TransformOutLen(xform, n)
			start := time.Now()
			err := transformInto(xform, rest[:n], buf[pos:pos+outn])
			xt += time.Since(start)
			if err != nil {
				bufpool.Shared.Put(buf)
				return nil, 0, statusXform
			}
			rest = rest[n:]
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(outn))
			pos += outn
		}
		t.srv.ObserveTransform(xt)
		return buf, pos, statusOK
	}
	// Data-dependent output (flate): transform each record into pooled
	// scratch first, then gather into the response buffer.
	outs := make([][]byte, 0, len(segs))
	free := func() {
		for _, o := range outs {
			bufpool.Shared.Put(o)
		}
	}
	outTotal := 0
	for _, s := range segs {
		n := int(s.n)
		start := time.Now()
		out, err := transformAlloc(xform, rest[:n], maxPayload-lb-outTotal, bufpool.Shared.Get)
		xt += time.Since(start)
		if err != nil {
			free()
			return nil, 0, statusXform
		}
		rest = rest[n:]
		outs = append(outs, out)
		outTotal += len(out)
	}
	t.srv.ObserveTransform(xt)
	buf := bufpool.Shared.Get(lb + outTotal)
	pos := lb
	for i, out := range outs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(len(out)))
		pos += copy(buf[pos:], out)
	}
	free()
	return buf, pos, statusOK
}

// readLen decodes a read command's 4-byte little-endian length payload,
// enforcing 0 < want <= maxPayload. The signed cast rejects lengths that
// would truncate negative on 32-bit platforms; a zero-length read is a
// protocol violation, not a no-op.
func readLen(p []byte) (int, byte) {
	if len(p) != 4 {
		return 0, statusBadOp
	}
	want := int(int32(uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24))
	if want <= 0 {
		return 0, statusBadOp
	}
	if want > maxPayload {
		return 0, statusRange
	}
	return want, statusOK
}

// execute serves one command and returns its completion, with read
// payloads as zero-copy store views (the flusher re-stages a view whose
// extents were written since).
func (t *Target) execute(req *capsule) completion {
	comp := completion{hdr: hdrPool.Get().(*[capsuleHeaderSize]byte)}
	status := statusOK
	switch req.opcode {
	case opRead:
		want, st := readLen(req.payload)
		if st != statusOK {
			status = st
			break
		}
		view, epoch, err := t.store.View(int64(req.offset), want, nil)
		if err != nil {
			status = statusRange
			break
		}
		comp.view, comp.epoch, comp.off = view, epoch, req.offset
		t.srv.ZeroCopyBytes.Add(int64(want))
		comp.n = want
		t.bytes.Add(int64(want))
		t.reads.Add(1)
	case opReadVec:
		segs, total, err := decodeVec(req.payload)
		if err != nil {
			status = statusBadOp
			break
		}
		// One epoch for the whole scatter list: any write between here
		// and the flush re-stages every segment.
		epoch := t.store.WriteEpoch()
		var view [][]byte
		for _, s := range segs {
			if view, _, err = t.store.View(int64(s.off), int(s.n), view); err != nil {
				status = statusRange
				break
			}
		}
		if status != statusOK {
			break
		}
		comp.view, comp.epoch, comp.vsegs = view, epoch, segs
		t.srv.ZeroCopyBytes.Add(int64(total))
		comp.n = total
		t.bytes.Add(int64(total))
		t.vecReads.Add(1)
		t.vecSegs.Add(int64(len(segs)))
	case opReadSamples:
		xform, segs, total, err := decodeSampleList(req.payload)
		if err != nil {
			if len(req.payload) >= sampleHdrSize && !TransformValid(req.payload[0]) {
				status = statusXform
			} else {
				status = statusRange
			}
			break
		}
		count := len(segs)
		viewable := xform == TransformNone || xform == TransformCRC32C
		if !viewable || !t.assembleViews(&comp, xform, segs, total) {
			out, n, st := t.assembleStaged(xform, segs)
			if st != statusOK {
				status = st
				break
			}
			comp.staged = out
			comp.n = n
			t.srv.StagedBytes.Add(int64(n))
		}
		t.srv.SampleCmds.Add(1)
		t.srv.AssembledSamples.Add(int64(count))
		t.srv.AssembledBytes.Add(int64(comp.n - 4*count))
		t.bytes.Add(int64(comp.n))
	case opWrite:
		start := time.Now()
		if _, err := t.store.WriteAt(req.payload, int64(req.offset)); err != nil {
			status = statusRange
			break
		}
		t.srv.ObserveWrite(int64(len(req.payload)), time.Since(start))
		t.bytes.Add(int64(len(req.payload)))
		t.writes.Add(1)
	case opWriteVec:
		if req.vecStatus != 0 {
			// Ingest-time validation failed; the frame was drained and
			// the deferred status completes here.
			status = req.vecStatus
			break
		}
		if req.vecs == nil {
			// An empty frame: nothing was ingested, there is nothing to land.
			status = statusBadOp
			break
		}
		// Per-segment pooled buffers from ingest. Aligned segments are
		// adopted as extent backing — no landing copy — and the store
		// hands back every buffer it did not keep (copied inputs,
		// displaced extents) for recycling.
		start := time.Now()
		offs := make([]int64, len(req.vsegs))
		for i, s := range req.vsegs {
			offs[i] = int64(s.off)
		}
		total, adopted, recycle, err := t.store.WriteVecAdoptSegs(req.vecs, offs)
		if err != nil {
			status = statusRange
			break
		}
		req.vecs = nil // ownership resolved: adopted by store or recycled here
		for _, b := range recycle {
			bufpool.Shared.Put(b)
		}
		t.srv.ObserveWrite(int64(total), time.Since(start))
		t.srv.VecWriteCmds.Add(1)
		t.srv.VecWriteSegs.Add(int64(len(req.vsegs)))
		t.srv.AdoptedExtents.Add(int64(adopted))
		t.bytes.Add(int64(total))
		t.writes.Add(1)
	case opFlush:
		// The barrier wait over the connection's prior writes already
		// happened (completeFlush); what remains is the media sync.
		if err := t.store.Sync(); err != nil {
			status = statusRange
			break
		}
		t.srv.FlushCmds.Add(1)
	default:
		status = statusBadOp
	}
	if status != statusOK {
		comp.view, comp.staged, comp.n = nil, nil, 0
	}
	encodeHdr(comp.hdr[:], req.cmdID, req.opcode, status, 0, comp.n)
	t.served.Add(1)
	return comp
}

// Close stops the listener and all connections, waiting for readers and
// flushers, then drains and stops the worker pool.
func (t *Target) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	var err error
	if t.ln != nil {
		err = t.ln.Close()
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	t.connWG.Wait()
	t.sched.close()
	t.workerWG.Wait()
	return err
}

// TenantStats is one tenant's serving account: commands and payload
// bytes executed, commands rejected at admission for being over quota,
// the current queue backlog, and the tenant's own engine stage counters
// (queue wait and service; histograms when the target runs with
// Config.StageHistograms).
type TenantStats struct {
	ID        int
	Cmds      int64
	Bytes     int64
	Throttled int64
	Queued    int
	Server    metrics.ServerSnapshot
}

// TenantStats reports per-tenant accounting for every tenant that has
// seen traffic (executed, queued, or throttled commands), in tenant-id
// order. Idle provisioned tenants are omitted so exports stay compact.
func (t *Target) TenantStats() []TenantStats {
	var out []TenantStats
	for _, ts := range t.sched.tenants {
		t.sched.mu.Lock()
		queued := ts.queued()
		t.sched.mu.Unlock()
		st := TenantStats{
			ID:        ts.id,
			Cmds:      ts.cmds.Load(),
			Bytes:     ts.bytes.Load(),
			Throttled: ts.throttled.Load(),
			Queued:    queued,
		}
		if st.Cmds == 0 && st.Throttled == 0 && st.Queued == 0 {
			continue
		}
		st.Server = ts.srv.Snapshot()
		out = append(out, st)
	}
	return out
}

// TenantRejects reports commands refused at ingestion because their
// tenant id was malformed (above MaxTenantID) or not provisioned on
// this target.
func (t *Target) TenantRejects() int64 { return t.tenantRejects.Load() }
