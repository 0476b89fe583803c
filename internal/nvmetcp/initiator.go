package nvmetcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"dlfs/internal/bufpool"
)

// Options tunes an initiator's failure behaviour. The zero value takes
// defaults; pass a negative RequestTimeout to disable per-command
// deadlines entirely (every blocking wait is still released by Close or
// by connection loss).
type Options struct {
	DialTimeout    time.Duration // dial + handshake bound (default 10s)
	RequestTimeout time.Duration // per-command deadline (default 30s; <0 disables)

	// Tenant stamps every command with this tenant id (0..MaxTenantID).
	// Zero — the default — is the legacy tenant, giving old callers the
	// exact wire frames they always sent. Negative values are treated as
	// zero; ids above MaxTenantID fail the connect.
	Tenant int
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.Tenant < 0 {
		o.Tenant = 0
	}
	return o
}

// Seg is one scatter segment of a vectored read: len(Dst) bytes fetched
// from Off land directly in Dst.
type Seg struct {
	Dst []byte
	Off int64
}

// compl is a command completion delivered from the receive loop.
type compl struct {
	status byte
	n      int    // payload bytes landed in the destination buffers
	ra     uint64 // retry-after hint in nanoseconds (statusThrottled only)
	err    error  // connection-level failure while receiving the payload
}

// pendingCmd tracks one in-flight command: its completion channel and the
// destination memory the response payload scatters into. Destinations are
// written by the receive loop directly off the socket — the zero-copy
// contract of the paper's pipeline: payloads land in their cache chunks,
// never in a transient allocation.
type pendingCmd struct {
	ch   chan compl
	dst  []byte      // single-read destination
	vec  []Seg       // vectored-read destinations, scattered in order
	smp  []SampleSeg // sample-mode destinations (opReadSamples)
	lens []int       // caller-owned per-record landed lengths (may be nil)
	op   byte        // opcode, for typed remote-status mapping

	// Per-command state that would otherwise be allocated per command:
	// the handle the submitter waits on, the deadline timer await re-arms
	// (stopped with an empty channel whenever pc is not being awaited), and an
	// opRead's 4-byte request payload.
	pd     Pending
	timer  *time.Timer
	lenBuf [4]byte
}

// pcPool recycles pendingCmds (their 1-buffered channels, handles and
// deadline timers) so the per-command hot path performs no allocation. A
// pendingCmd is returned to the pool only after its completion was
// consumed on a clean path; error paths abandon it to the GC, which
// keeps closed or contended channels out of the pool.
var pcPool = sync.Pool{New: func() any { return &pendingCmd{ch: make(chan compl, 1)} }}

func getPending() *pendingCmd { return pcPool.Get().(*pendingCmd) }

func putPending(pc *pendingCmd) {
	pc.dst, pc.vec, pc.smp, pc.lens, pc.op, pc.pd = nil, nil, nil, nil, 0, Pending{}
	pcPool.Put(pc)
}

// handle returns the submitter's handle on pc, now in flight on in as
// command id. It lives in pc: valid until Wait returns, like pc itself.
func (pc *pendingCmd) handle(in *Initiator, id uint64) *Pending {
	pc.pd = Pending{in: in, pc: pc, id: id}
	return &pc.pd
}

// Initiator is the client side of one queue pair: a TCP connection to a
// Target with asynchronous submit and out-of-order completion delivery.
// It is safe for concurrent use.
type Initiator struct {
	conn     net.Conn
	opt      Options
	depth    int
	capacity int64

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingCmd
	sendMu  sync.Mutex
	sendHdr []byte // frame header scratch, guarded by sendMu
	closed  bool
	readErr error
	done    chan struct{}
}

// Errors.
var (
	ErrClosed     = errors.New("nvmetcp: initiator closed")
	ErrRemote     = errors.New("nvmetcp: remote error")
	ErrHandshake  = errors.New("nvmetcp: handshake failed")
	ErrDepthLimit = errors.New("nvmetcp: queue depth exceeded")
	ErrTimeout    = errors.New("nvmetcp: command deadline exceeded")
	ErrConnLost   = errors.New("nvmetcp: connection lost")
	ErrThrottled  = errors.New("nvmetcp: tenant quota exceeded")
)

// IsRetryable classifies an error from this package (or from dialing) as
// a transient transport condition worth retrying on a fresh connection,
// as opposed to a deliberate close or a remote semantic error. Timeouts,
// lost connections, queue-depth pressure, tenant throttling and
// network-level failures are retryable; ErrClosed and ErrRemote are not.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrTimeout) || errors.Is(err, ErrConnLost) ||
		errors.Is(err, ErrDepthLimit) || errors.Is(err, ErrThrottled) {
		return true
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrRemote) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// Connect dials a target and performs the hello handshake with default
// Options.
func Connect(addr string) (*Initiator, error) {
	return ConnectOptions(addr, Options{})
}

// ConnectOptions dials a target with explicit failure options. The
// handshake is bounded by DialTimeout, so a black-holed target cannot
// hang the caller.
func ConnectOptions(addr string, opt Options) (*Initiator, error) {
	opt = opt.withDefaults()
	if opt.Tenant > MaxTenantID {
		return nil, fmt.Errorf("nvmetcp: tenant %d above protocol maximum %d", opt.Tenant, MaxTenantID)
	}
	conn, err := net.DialTimeout("tcp", addr, opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Now().Add(opt.DialTimeout)) //nolint:errcheck
	if err := writeCapsule(conn, &capsule{opcode: opHello}); err != nil {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	hello, err := readCapsule(conn)
	if err != nil {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("%w: %w", ErrHandshake, err)
	}
	if hello.opcode != opHello {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("%w: unexpected opcode %d in hello reply", ErrHandshake, hello.opcode)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	in := &Initiator{
		conn:     conn,
		opt:      opt,
		depth:    int(hello.offset),
		capacity: int64(hello.cmdID),
		pending:  make(map[uint64]*pendingCmd),
		sendHdr:  make([]byte, capsuleHeaderSize),
		done:     make(chan struct{}),
	}
	go in.receiveLoop()
	return in, nil
}

// Depth returns the negotiated queue depth.
func (in *Initiator) Depth() int { return in.depth }

// Capacity returns the target device's capacity in bytes.
func (in *Initiator) Capacity() int64 { return in.capacity }

// failPending records why the connection died, releases every waiter, and
// delivers the cause to an already-claimed command (whose channel is no
// longer in the map).
func (in *Initiator) failPending(claimed *pendingCmd, cause error) {
	in.mu.Lock()
	if in.closed {
		in.readErr = ErrClosed
	} else {
		in.readErr = fmt.Errorf("%w: %v", ErrConnLost, cause)
	}
	err := in.readErr
	for id, pc := range in.pending {
		close(pc.ch)
		delete(in.pending, id)
	}
	in.mu.Unlock()
	if claimed != nil {
		claimed.ch <- compl{err: err}
	}
}

// receiveLoop reads completions and scatters their payloads directly into
// the waiting commands' destination buffers — no per-response allocation
// and no intermediate copy. Payloads for withdrawn (timed-out) commands
// are drained through a pooled scratch buffer to keep the stream framed.
func (in *Initiator) receiveLoop() {
	defer close(in.done)
	hdr := make([]byte, capsuleHeaderSize)
	var scratch []byte
	defer func() { bufpool.Shared.Put(scratch) }()
	for {
		if _, err := io.ReadFull(in.conn, hdr); err != nil {
			in.failPending(nil, err)
			return
		}
		if binary.LittleEndian.Uint32(hdr[0:4]) != Magic {
			in.conn.Close() //nolint:errcheck
			in.failPending(nil, ErrBadMagic)
			return
		}
		cmdID := binary.LittleEndian.Uint64(hdr[4:12])
		status := hdr[13]
		// The offset field of a throttled completion carries the target's
		// retry-after hint; on every other status it is unused.
		var ra uint64
		if status == statusThrottled {
			ra = binary.LittleEndian.Uint64(hdr[14:22])
		}
		n := int(binary.LittleEndian.Uint32(hdr[22:26]))
		if n > maxPayload {
			in.conn.Close() //nolint:errcheck
			in.failPending(nil, ErrTooLarge)
			return
		}

		in.mu.Lock()
		pc, ok := in.pending[cmdID]
		if ok {
			delete(in.pending, cmdID)
		}
		in.mu.Unlock()

		if n > 0 && in.opt.RequestTimeout > 0 {
			// Bound the payload body so a peer stalling mid-frame cannot
			// wedge a claimed command past its deadline.
			in.conn.SetReadDeadline(time.Now().Add(in.opt.RequestTimeout)) //nolint:errcheck
		}
		remaining := n
		landed := 0
		var rerr error
		var serr error // semantic sample-frame violation; stream stays framed
		if ok && status == statusOK {
			switch {
			case pc.dst != nil:
				k := min(len(pc.dst), remaining)
				if k > 0 {
					_, rerr = io.ReadFull(in.conn, pc.dst[:k])
					landed += k
					remaining -= k
				}
			case pc.smp != nil:
				// Sample-mode response: a count×u32 length block, then the
				// transformed records in request order. A record length
				// exceeding its destination (or the frame) is a semantic
				// error — scattering stops and the remainder drains through
				// scratch below, so the connection survives the bad frame.
				cnt := len(pc.smp)
				lb := 4 * cnt
				if remaining < lb {
					serr = fmt.Errorf("%w: sample response %d bytes before %d-record length block",
						ErrRemote, remaining, cnt)
					break
				}
				lbuf := bufpool.Shared.Get(lb)
				if _, rerr = io.ReadFull(in.conn, lbuf); rerr != nil {
					bufpool.Shared.Put(lbuf)
					break
				}
				remaining -= lb
				for i := 0; i < cnt && rerr == nil; i++ {
					l := int(binary.LittleEndian.Uint32(lbuf[4*i:]))
					if l > len(pc.smp[i].Dst) || l > remaining {
						serr = fmt.Errorf("%w: record %d length %d (dst %d, frame %d)",
							ErrRemote, i, l, len(pc.smp[i].Dst), remaining)
						break
					}
					if pc.lens != nil {
						pc.lens[i] = l
					}
					if l > 0 {
						_, rerr = io.ReadFull(in.conn, pc.smp[i].Dst[:l])
						landed += l
						remaining -= l
					}
				}
				if serr == nil && rerr == nil && remaining != 0 {
					serr = fmt.Errorf("%w: %d stray bytes after %d records", ErrRemote, remaining, cnt)
				}
				bufpool.Shared.Put(lbuf)
			default:
				for i := 0; i < len(pc.vec) && remaining > 0 && rerr == nil; i++ {
					d := pc.vec[i].Dst
					k := min(len(d), remaining)
					_, rerr = io.ReadFull(in.conn, d[:k])
					landed += k
					remaining -= k
				}
			}
		}
		for rerr == nil && remaining > 0 {
			if scratch == nil {
				scratch = bufpool.Shared.Get(32 << 10)
			}
			k := min(len(scratch), remaining)
			_, rerr = io.ReadFull(in.conn, scratch[:k])
			remaining -= k
		}
		if n > 0 && in.opt.RequestTimeout > 0 {
			in.conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		}
		if rerr != nil {
			in.failPending(pc, rerr)
			return
		}
		if ok {
			pc.ch <- compl{status: status, n: landed, ra: ra, err: serr}
		}
	}
}

// submit registers pc and sends a request, returning the command ID for
// deadline cancellation. On error the registration is withdrawn; the
// caller must not reuse pc afterwards (its channel may be owned by a
// concurrent connection-failure sweep).
func (in *Initiator) submit(req *capsule, pc *pendingCmd) (uint64, error) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return 0, ErrClosed
	}
	if in.readErr != nil {
		err := in.readErr
		in.mu.Unlock()
		return 0, err
	}
	if len(in.pending) >= in.depth {
		in.mu.Unlock()
		return 0, ErrDepthLimit
	}
	in.nextID++
	req.cmdID = in.nextID
	// Request capsules carry the tenant id in the status slot; zero is
	// the legacy default, so tenant-0 frames are byte-identical to the
	// pre-tenant protocol.
	req.status = byte(in.opt.Tenant)
	pc.op = req.opcode
	in.pending[req.cmdID] = pc
	in.mu.Unlock()

	in.sendMu.Lock()
	if in.opt.RequestTimeout > 0 {
		in.conn.SetWriteDeadline(time.Now().Add(in.opt.RequestTimeout)) //nolint:errcheck
	}
	err := writeCapsuleHdr(in.conn, req, in.sendHdr)
	if in.opt.RequestTimeout > 0 {
		in.conn.SetWriteDeadline(time.Time{}) //nolint:errcheck
	}
	in.sendMu.Unlock()
	if err != nil {
		in.mu.Lock()
		delete(in.pending, req.cmdID)
		closed := in.closed
		in.mu.Unlock()
		if closed {
			return 0, ErrClosed
		}
		return 0, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return req.cmdID, nil
}

// await blocks for the completion of command id, bounded by the
// per-command deadline. On timeout the pending entry is withdrawn so a
// late completion is drained instead of leaking; if the receive loop has
// already claimed the command, await waits it out — the payload is
// actively landing in the caller's buffers and they must not be reused
// while the socket writes them.
func (in *Initiator) await(pc *pendingCmd, id uint64) (int, error) {
	var timeout <-chan time.Time
	if d := in.opt.RequestTimeout; d > 0 {
		if pc.timer == nil {
			pc.timer = time.NewTimer(d)
		} else {
			pc.timer.Reset(d)
		}
		timeout = pc.timer.C
	}
	select {
	case c, ok := <-pc.ch:
		// Disarm before pc can go back to the pool. A timer that fired while
		// the completion arrived has a tick in its channel or on its way
		// there, and re-arming it would time the next command out at once:
		// that rare timer is dropped, tick and all, and the next await
		// makes a new one.
		if timeout != nil && !pc.timer.Stop() {
			pc.timer = nil
		}
		return in.finish(c, ok, pc, id)
	case <-timeout: // fired and drained by this receive
		in.mu.Lock()
		_, still := in.pending[id]
		if still {
			delete(in.pending, id)
		}
		in.mu.Unlock()
		if !still {
			// Claimed by the receive loop: completion is imminent (the
			// payload read is itself deadline-bounded).
			c, ok := <-pc.ch
			return in.finish(c, ok, pc, id)
		}
		putPending(pc)
		return 0, fmt.Errorf("%w: command %d after %v", ErrTimeout, id, in.opt.RequestTimeout)
	}
}

// finish interprets a completion delivery and recycles pc on clean paths.
func (in *Initiator) finish(c compl, ok bool, pc *pendingCmd, id uint64) (int, error) {
	if !ok {
		in.mu.Lock()
		err := in.readErr
		in.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return 0, err
	}
	if c.err != nil {
		return 0, c.err
	}
	if c.status != statusOK {
		op := pc.op
		putPending(pc)
		if c.status == statusBadOp && (op == opReadSamples || op == opWriteVec || op == opFlush) {
			// statusBadOp on these opcodes can only mean a target that does
			// not speak them: surface the typed downgrade signal.
			return 0, &UnsupportedOpError{Opcode: op}
		}
		if c.status == statusThrottled {
			// Admission control, not failure: typed, retryable, and
			// carrying the target's backoff hint. Never a breaker event.
			return 0, &ThrottledError{Tenant: in.opt.Tenant, RetryAfter: time.Duration(c.ra)}
		}
		if c.status == statusTenant {
			return 0, fmt.Errorf("%w: tenant %d rejected by target (command %d)", ErrRemote, in.opt.Tenant, id)
		}
		return 0, fmt.Errorf("%w: status %d for command %d", ErrRemote, c.status, id)
	}
	n := c.n
	putPending(pc)
	return n, nil
}

// ReadAt reads len(p) bytes at off from the remote store. The payload is
// received directly into p.
func (in *Initiator) ReadAt(p []byte, off int64) (int, error) {
	pd, err := in.ReadAsync(p, off)
	if err != nil {
		return 0, err
	}
	return pd.Wait()
}

// WriteAt writes p at off on the remote store.
func (in *Initiator) WriteAt(p []byte, off int64) (int, error) {
	pd, err := in.WriteAsync(p, off)
	if err != nil {
		return 0, err
	}
	if _, err := pd.Wait(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAsync submits a write of p at off without waiting. The payload
// is fully on the wire when WriteAsync returns, so the caller may reuse
// p immediately; Wait() confirms the store landing.
func (in *Initiator) WriteAsync(p []byte, off int64) (*Pending, error) {
	pc := getPending()
	id, err := in.submit(&capsule{opcode: opWrite, offset: uint64(off), payload: p}, pc)
	if err != nil {
		return nil, err
	}
	return pc.handle(in, id), nil
}

// WSeg is one gather segment of a vectored write: len(Src) bytes
// destined for byte offset Off on the remote store.
type WSeg struct {
	Src []byte
	Off int64
}

// WriteVecAsync submits one gathered write covering every segment — a
// single wire command whose payload carries the extents' descriptors
// and bytes, landed by the target under a single seqlock epoch so a
// multi-extent checkpoint stripe becomes visible atomically. Only the
// descriptor block is staged; the data segments are gathered straight
// from the caller's buffers into a single vectored socket write, so no
// client-side copy of the payload is made. The payload is fully on the
// wire when WriteVecAsync returns, so source buffers are free for
// immediate reuse. A target that does not speak the opcode completes
// with *UnsupportedOpError; callers downgrade to per-extent WriteAt.
func (in *Initiator) WriteVecAsync(segs []WSeg) (*Pending, error) {
	if len(segs) == 0 || len(segs) > maxVecSegs {
		return nil, fmt.Errorf("nvmetcp: vectored write of %d segments", len(segs))
	}
	total := 0
	for i, s := range segs {
		if len(s.Src) == 0 {
			return nil, fmt.Errorf("nvmetcp: vectored write segment %d is empty", i)
		}
		total += len(s.Src)
	}
	framed := writeVecHdrSize + vecSegSize*len(segs) + total
	if framed > maxPayload {
		return nil, fmt.Errorf("%w: vectored write of %d bytes", ErrTooLarge, framed)
	}
	vsegs := make([]vecSeg, len(segs))
	for i, s := range segs {
		vsegs[i] = vecSeg{off: uint64(s.Off), n: uint32(len(s.Src))}
	}
	desc := bufpool.Shared.Get(writeVecHdrSize + vecSegSize*len(segs))
	n := encodeWriteVec(desc, vsegs)
	gather := make(net.Buffers, 0, len(segs)+1)
	gather = append(gather, desc[:n])
	for _, s := range segs {
		gather = append(gather, s.Src)
	}
	pc := getPending()
	id, err := in.submit(&capsule{opcode: opWriteVec, gather: gather}, pc)
	bufpool.Shared.Put(desc) // descriptors on the wire (or failed) by now
	if err != nil {
		return nil, err
	}
	return pc.handle(in, id), nil
}

// WriteVec performs a synchronous gathered write, returning the total
// data bytes written.
func (in *Initiator) WriteVec(segs []WSeg) (int, error) {
	pd, err := in.WriteVecAsync(segs)
	if err != nil {
		return 0, err
	}
	if _, err := pd.Wait(); err != nil {
		return 0, err
	}
	n := 0
	for _, s := range segs {
		n += len(s.Src)
	}
	return n, nil
}

// FlushAsync submits a durability barrier: it completes only once
// every write submitted on this connection before it has been applied
// and the store synced. A target that does not speak the opcode
// completes with *UnsupportedOpError.
func (in *Initiator) FlushAsync() (*Pending, error) {
	pc := getPending()
	id, err := in.submit(&capsule{opcode: opFlush}, pc)
	if err != nil {
		return nil, err
	}
	return pc.handle(in, id), nil
}

// Flush performs a synchronous durability barrier.
func (in *Initiator) Flush() error {
	pd, err := in.FlushAsync()
	if err != nil {
		return err
	}
	_, err = pd.Wait()
	return err
}

// Pending is an in-flight asynchronous command. It is valid until Wait
// returns and must not be waited on twice.
type Pending struct {
	in *Initiator
	pc *pendingCmd
	id uint64
}

// ReadAsync submits a read without waiting. Wait() completes it.
func (in *Initiator) ReadAsync(dst []byte, off int64) (*Pending, error) {
	pc := getPending()
	pc.dst = dst
	binary.LittleEndian.PutUint32(pc.lenBuf[:], uint32(len(dst)))
	id, err := in.submit(&capsule{opcode: opRead, offset: uint64(off), payload: pc.lenBuf[:]}, pc)
	if err != nil {
		return nil, err
	}
	return pc.handle(in, id), nil
}

// ReadVecAsync submits one vectored read covering every segment: a single
// wire command whose response scatters into the segments' buffers in
// order. Adjacent chunk reads coalesce into one roundtrip this way.
func (in *Initiator) ReadVecAsync(segs []Seg) (*Pending, error) {
	if len(segs) == 0 || len(segs) > maxVecSegs {
		return nil, fmt.Errorf("nvmetcp: vectored read of %d segments", len(segs))
	}
	pay := bufpool.Shared.Get(4 + vecSegSize*len(segs))
	binary.LittleEndian.PutUint32(pay[0:4], uint32(len(segs)))
	p := 4
	for _, s := range segs {
		binary.LittleEndian.PutUint64(pay[p:p+8], uint64(s.Off))
		binary.LittleEndian.PutUint32(pay[p+8:p+12], uint32(len(s.Dst)))
		p += vecSegSize
	}
	pc := getPending()
	pc.vec = segs
	id, err := in.submit(&capsule{opcode: opReadVec, payload: pay[:p]}, pc)
	bufpool.Shared.Put(pay) // frame fully written (or failed) by now
	if err != nil {
		return nil, err
	}
	return pc.handle(in, id), nil
}

// ReadVec performs a synchronous vectored read.
func (in *Initiator) ReadVec(segs []Seg) (int, error) {
	pd, err := in.ReadVecAsync(segs)
	if err != nil {
		return 0, err
	}
	return pd.Wait()
}

// ThrottledError reports a command rejected by the target's per-tenant
// admission control: the tenant is over its byte or IOPS quota, and the
// target suggests retrying after RetryAfter. It unwraps to ErrThrottled,
// which IsRetryable accepts, so the Reconnector's ordinary retry ladder
// absorbs throttling — without retiring the (healthy) connection and
// without the client's circuit breaker ever seeing it.
type ThrottledError struct {
	Tenant     int
	RetryAfter time.Duration
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("nvmetcp: tenant %d throttled, retry after %v", e.Tenant, e.RetryAfter)
}

func (e *ThrottledError) Unwrap() error { return ErrThrottled }

// UnsupportedOpError reports a target that rejected a capsule opcode
// with statusBadOp — an old target behind a new client during a rolling
// upgrade. It unwraps to ErrRemote so it is never retried; callers
// downgrade to an older opcode instead.
type UnsupportedOpError struct{ Opcode byte }

func (e *UnsupportedOpError) Error() string {
	return fmt.Sprintf("nvmetcp: opcode %d unsupported by target", e.Opcode)
}

func (e *UnsupportedOpError) Unwrap() error { return ErrRemote }

// SampleSeg describes one record of a server-assembled read
// (opReadSamples): N stored bytes at Off, transformed target-side, its
// output landing in Dst. Dst must hold TransformOutLen(xform, N) bytes
// for fixed-size transforms, or the expansion bound for TransformFlate.
type SampleSeg struct {
	Dst []byte
	Off int64
	N   int
}

// ReadSamplesAsync submits one opReadSamples offload command: the
// target assembles every described record from its extents, applies the
// transform, and responds with exactly the post-transform bytes, which
// scatter directly into the segments' Dst buffers. lens, when non-nil,
// must have len(segs) entries; the receive loop fills it with each
// record's landed length (needed by size-changing transforms). A target
// that does not speak the opcode completes with *UnsupportedOpError.
func (in *Initiator) ReadSamplesAsync(xform byte, segs []SampleSeg, lens []int) (*Pending, error) {
	if len(segs) == 0 || len(segs) > MaxSampleDescs {
		return nil, fmt.Errorf("nvmetcp: sample read of %d records", len(segs))
	}
	if !TransformValid(xform) {
		return nil, fmt.Errorf("nvmetcp: unknown transform %d", xform)
	}
	if lens != nil && len(lens) != len(segs) {
		return nil, fmt.Errorf("nvmetcp: lens holds %d of %d records", len(lens), len(segs))
	}
	pay := bufpool.Shared.Get(sampleHdrSize + sampleDescSize*len(segs))
	pay[0] = xform
	binary.LittleEndian.PutUint32(pay[1:5], uint32(len(segs)))
	p := sampleHdrSize
	for _, s := range segs {
		binary.LittleEndian.PutUint64(pay[p:p+8], uint64(s.Off))
		binary.LittleEndian.PutUint32(pay[p+8:p+12], uint32(s.N))
		p += sampleDescSize
	}
	pc := getPending()
	pc.smp = segs
	pc.lens = lens
	id, err := in.submit(&capsule{opcode: opReadSamples, payload: pay[:p]}, pc)
	bufpool.Shared.Put(pay) // frame fully written (or failed) by now
	if err != nil {
		return nil, err
	}
	return pc.handle(in, id), nil
}

// ReadSamples performs a synchronous server-assembled read, returning
// the total payload bytes landed.
func (in *Initiator) ReadSamples(xform byte, segs []SampleSeg, lens []int) (int, error) {
	pd, err := in.ReadSamplesAsync(xform, segs, lens)
	if err != nil {
		return 0, err
	}
	return pd.Wait()
}

// Wait blocks until the read completes; the payload has then landed in
// the destination buffer(s).
func (pd *Pending) Wait() (int, error) {
	return pd.in.await(pd.pc, pd.id)
}

// Close tears the connection down; outstanding commands fail promptly
// with ErrClosed (the closed flag is set before the socket is torn down,
// so the receive loop can tell a deliberate close from a lost peer).
func (in *Initiator) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return nil
	}
	in.closed = true
	in.mu.Unlock()
	err := in.conn.Close()
	<-in.done
	return err
}

// abort tears the connection down without marking a deliberate close:
// in-flight and future callers observe a retryable ErrConnLost instead
// of ErrClosed. Used by the Reconnector to retire a failed queue pair
// while other goroutines still hold pendings on it.
func (in *Initiator) abort() {
	in.conn.Close() //nolint:errcheck
	<-in.done
}
