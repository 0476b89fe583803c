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
	orDefault(&o.DialTimeout, 10*time.Second)
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	o.Tenant = max(o.Tenant, 0)
	return o
}

// orDefault gives a knob that is unset (not positive) its default.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// compl is a command completion delivered from the receive loop.
type compl struct {
	status byte
	n      int    // payload bytes landed in the destination buffers
	ra     uint64 // retry-after hint in nanoseconds (statusThrottled only)
	err    error  // connection-level failure while receiving the payload
}

// pendingCmd tracks one in-flight command: its completion channel and the
// Command itself, whose destinations the response payload scatters into.
// Destinations are written by the receive loop directly off the socket —
// the zero-copy contract of the paper's pipeline: payloads land in their
// cache chunks, never in a transient allocation.
type pendingCmd struct {
	ch    chan compl
	cmd   Command
	wrote int // data bytes a write carries: what its Wait reports

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
	pc.cmd, pc.wrote, pc.pd = Command{}, 0, Pending{}
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
	forms[*Pending]
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
	err = writeCapsule(conn, &capsule{opcode: opHello})
	var hello *capsule
	if err == nil {
		hello, err = readCapsule(conn)
	}
	if err == nil && hello.opcode != opHello {
		err = fmt.Errorf("unexpected opcode %d in hello reply", hello.opcode)
	}
	if err != nil {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("%w: %w", ErrHandshake, err)
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
	in.l = in
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
			switch smp := pc.cmd.Segs; pc.cmd.Op {
			case OpRead:
				k := min(len(pc.cmd.Buf), remaining)
				if k > 0 {
					_, rerr = io.ReadFull(in.conn, pc.cmd.Buf[:k])
					landed += k
					remaining -= k
				}
			case OpReadSamples:
				// Sample-mode response: a count×u32 length block, then the
				// transformed records in request order. A record length
				// exceeding its destination (or the frame) is a semantic
				// error — scattering stops and the remainder drains through
				// scratch below, so the connection survives the bad frame.
				cnt := len(smp)
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
					if l > len(smp[i].Dst) || l > remaining {
						serr = fmt.Errorf("%w: record %d length %d (dst %d, frame %d)",
							ErrRemote, i, l, len(smp[i].Dst), remaining)
						break
					}
					if pc.cmd.Lens != nil {
						pc.cmd.Lens[i] = l
					}
					if l > 0 {
						_, rerr = io.ReadFull(in.conn, smp[i].Dst[:l])
						landed += l
						remaining -= l
					}
				}
				if serr == nil && rerr == nil && remaining != 0 {
					serr = fmt.Errorf("%w: %d stray bytes after %d records", ErrRemote, remaining, cnt)
				}
				bufpool.Shared.Put(lbuf)
			case OpReadVec:
				for i := 0; i < len(smp) && remaining > 0 && rerr == nil; i++ {
					d := smp[i].Dst
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
		op := pc.cmd.Op
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
	n := c.n + pc.wrote
	putPending(pc)
	return n, nil
}

// Submit validates c, frames it and puts it on the wire: the one place
// a request is encoded, whatever the opcode and whichever layer sent it.
// A write's payload is gathered from the caller's buffers into a single
// vectored socket write (only descriptor blocks are staged) and is fully
// on the wire when Submit returns; Wait confirms the store landing. A
// target that does not speak OpReadSamples, OpWriteVec or OpFlush
// completes the command with *UnsupportedOpError.
func (in *Initiator) Submit(c Command) (*Pending, error) {
	pc := getPending()
	req := capsule{opcode: c.Op}
	var desc []byte // pooled descriptor block: on the wire, or failed, once submit returns
	var err error
	switch c.Op {
	case OpRead:
		binary.LittleEndian.PutUint32(pc.lenBuf[:], uint32(len(c.Buf)))
		req.offset, req.payload = uint64(c.Off), pc.lenBuf[:]
	case OpWrite:
		req.offset, req.payload, pc.wrote = uint64(c.Off), c.Buf, len(c.Buf)
	case OpReadVec, OpReadSamples:
		samples, limit, hdr := c.Op == OpReadSamples, maxVecSegs, 0
		if samples {
			limit, hdr = MaxSampleDescs, 1 // the transform byte leads the count
		}
		switch {
		case len(c.Segs) == 0 || len(c.Segs) > limit:
			err = fmt.Errorf("nvmetcp: read of %d segments", len(c.Segs))
		case samples && !TransformValid(c.Xform):
			err = fmt.Errorf("nvmetcp: unknown transform %d", c.Xform)
		case samples && c.Lens != nil && len(c.Lens) != len(c.Segs):
			err = fmt.Errorf("nvmetcp: lens holds %d of %d records", len(c.Lens), len(c.Segs))
		default:
			desc = bufpool.Shared.Get(hdr + 4 + vecSegSize*len(c.Segs))
			desc[0] = c.Xform // an OpReadVec's count goes over it
			binary.LittleEndian.PutUint32(desc[hdr:], uint32(len(c.Segs)))
			p := hdr + 4
			for _, s := range c.Segs {
				n := len(s.Dst)
				if samples {
					n = s.N
				}
				putDesc(desc[p:], uint64(s.Off), n)
				p += vecSegSize
			}
			req.payload = desc[:p]
		}
	case OpWriteVec:
		if len(c.WSegs) == 0 || len(c.WSegs) > maxVecSegs {
			err = fmt.Errorf("nvmetcp: vectored write of %d segments", len(c.WSegs))
			break
		}
		dn := writeVecHdrSize + vecSegSize*len(c.WSegs)
		desc = bufpool.Shared.Get(dn)
		binary.LittleEndian.PutUint32(desc, uint32(len(c.WSegs)))
		req.gather = make(net.Buffers, 2, len(c.WSegs)+2)
		req.gather[1] = desc[:dn]
		for i, s := range c.WSegs {
			if len(s.Src) == 0 {
				err = fmt.Errorf("nvmetcp: vectored write segment %d is empty", i)
				break
			}
			putDesc(desc[writeVecHdrSize+vecSegSize*i:], uint64(s.Off), len(s.Src))
			req.gather = append(req.gather, s.Src)
			pc.wrote += len(s.Src)
		}
		if err == nil && dn+pc.wrote > maxPayload {
			err = fmt.Errorf("%w: vectored write of %d bytes", ErrTooLarge, dn+pc.wrote)
		}
	case OpFlush:
	default:
		err = fmt.Errorf("nvmetcp: opcode %d is not a command", c.Op)
	}
	if err != nil {
		bufpool.Shared.Put(desc)
		putPending(pc) // never registered: nothing else holds it
		return nil, err
	}
	pc.cmd = c
	id, err := in.submit(&req, pc)
	bufpool.Shared.Put(desc)
	if err != nil {
		return nil, err
	}
	return pc.handle(in, id), nil
}

// Do submits c and waits for it.
func (in *Initiator) Do(c Command) (int, error) {
	pd, err := in.Submit(c)
	if err != nil {
		return 0, err
	}
	return pd.Wait()
}

// Pending is an in-flight asynchronous command. It is valid until Wait
// returns and must not be waited on twice.
type Pending struct {
	in *Initiator
	pc *pendingCmd
	id uint64
}

// Wait blocks until the command completes and returns the payload bytes
// it moved: a read's have then landed in the destination buffer(s).
func (pd *Pending) Wait() (int, error) {
	return pd.in.await(pd.pc, pd.id)
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
