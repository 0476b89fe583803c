package chaos

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a fault-injecting TCP man-in-the-middle between initiators
// and one real target. Clients connect to the proxy's address; each
// accepted connection is paired with an upstream dial to the target and
// piped through a fault-injecting Conn, so drops, delays, throttling and
// corruption hit the live NVMe-oF byte stream exactly as a misbehaving
// fabric would.
//
// Blackhole mode simulates a hung (not crashed) target: accepted and
// existing connections stay open but forwarded bytes are silently
// discarded in both directions, so in-flight commands hit their
// deadlines and new handshakes time out.
type Proxy struct {
	target string
	cfg    Config
	st     *counters

	ln        net.Listener
	mu        sync.Mutex
	conns     map[net.Conn]struct{} // both sides of every live pipe
	closed    bool
	wg        sync.WaitGroup
	connSeq   atomic.Int64
	blackhole atomic.Bool

	// Asymmetric partition: each direction is dropped independently.
	dropToTarget atomic.Bool // client → target bytes discarded
	dropToClient atomic.Bool // target → client bytes discarded

	masked *[256]bool // request opcodes hidden from the target (MaskOps)
}

// What a relay has to know of an nvmetcp capsule
// (internal/nvmetcp/protocol.go; that package's tests import this one,
// so the layout is restated here, and its TestLegacyTargetDowngrade runs
// through MaskOps, so the two cannot drift apart unnoticed).
const (
	capsuleHeader = 26 // magic u32 | cmdID u64 | opcode u8 | status u8 | offset u64 | length u32
	capsuleOpcode = 12
	capsuleLength = 22
	opUnassigned  = 0xEE // no build's opcode: a target answers it statusBadOp
)

// MaskOps makes the target behind the proxy look like a build from
// before the given opcodes existed, which is what a new client meets in
// a rolling upgrade: the proxy follows the request stream capsule by
// capsule and rewrites the opcode byte of every request carrying one of
// ops to an unassigned value, so the target rejects the command as
// unknown and the client, which types the error from the opcode it sent,
// sees its old-target signal. Everything else, payloads and the
// completion stream included, passes untouched. Call it before Listen.
func (p *Proxy) MaskOps(ops ...byte) {
	p.masked = new([256]bool)
	for _, op := range ops {
		p.masked[op] = true
	}
}

// NewProxy returns a proxy forwarding to target with the given faults.
func NewProxy(target string, cfg Config) *Proxy {
	return &Proxy{target: target, cfg: cfg, st: &counters{}, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address clients should dial.
func (p *Proxy) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop()
	return ln.Addr().String(), nil
}

// Addr returns the proxy's bound address ("" before Listen).
func (p *Proxy) Addr() string {
	if p.ln == nil {
		return ""
	}
	return p.ln.Addr().String()
}

// Stats reports the faults injected so far.
func (p *Proxy) Stats() Stats { return p.st.snapshot() }

// SetBlackhole toggles blackhole mode for current and future
// connections.
func (p *Proxy) SetBlackhole(v bool) { p.blackhole.Store(v) }

// SetPartition configures an asymmetric partition on current and future
// connections: with toTarget set, bytes from clients toward the target
// are silently discarded; with toClient set, bytes from the target
// toward clients are. One-way loss is the nastiest fabric failure for a
// consensus protocol — a node that can send heartbeats but not hear
// responses (or vice versa) — and is exactly what symmetric blackhole
// mode cannot express. SetPartition(true, true) is equivalent to
// blackhole; SetPartition(false, false) heals.
func (p *Proxy) SetPartition(toTarget, toClient bool) {
	p.dropToTarget.Store(toTarget)
	p.dropToClient.Store(toClient)
}

// KillActive severs every live proxied connection (both sides) and
// returns how many client connections were dropped. New connections are
// still accepted.
func (p *Proxy) KillActive() int {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	if n := len(conns) / 2; n > 0 {
		p.st.kills.Add(int64(n))
		return n
	}
	return 0
}

// KillOne severs a single live proxied connection pair and reports
// whether one was killed. Closing one side is enough: the handler's
// teardown closes its peer. Used to exercise multi-queue-pair clients,
// where losing one of a target's connections must not lose data striped
// onto the survivors.
func (p *Proxy) KillOne() bool {
	p.mu.Lock()
	var victim net.Conn
	for c := range p.conns {
		victim = c
		break
	}
	p.mu.Unlock()
	if victim == nil {
		return false
	}
	victim.Close() //nolint:errcheck
	p.st.kills.Add(1)
	return true
}

// Close stops the listener and severs all connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	p.KillActive()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close() //nolint:errcheck
			return
		}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.handle(client)
	}
}

// track registers c for KillActive/Close teardown; untrack reverses it.
func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) handle(client net.Conn) {
	defer p.wg.Done()
	up, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		client.Close() //nolint:errcheck
		return
	}
	p.st.conns.Add(1)
	p.track(client)
	p.track(up)
	defer func() {
		p.untrack(client)
		p.untrack(up)
		client.Close() //nolint:errcheck
		up.Close()     //nolint:errcheck
	}()

	// The upstream side carries the fault schedule: faults on Write hit
	// request capsules, faults on Read hit completion capsules.
	wrapped := Wrap(up, p.cfg, p.connSeq.Add(1))
	wrapped.st = p.st

	var pwg sync.WaitGroup
	pwg.Add(2)
	go func() {
		defer pwg.Done()
		if p.masked != nil {
			p.pipeCapsules(wrapped, client)
		} else {
			p.pipe(wrapped, client, &p.dropToTarget)
		}
	}()
	go func() { defer pwg.Done(); p.pipe(client, wrapped, &p.dropToClient) }()
	pwg.Wait()
}

// pipe copies src to dst segment by segment, discarding instead of
// forwarding while blackhole mode or this direction's partition is on.
func (p *Proxy) pipe(dst io.Writer, src io.Reader, drop *atomic.Bool) {
	buf := make([]byte, 16<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 && !p.blackhole.Load() && !drop.Load() {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// pipeCapsules is the request direction of a MaskOps proxy: header,
// rewrite, payload, one capsule at a time. The blackhole and the
// partition still apply, by discarding what would have been forwarded.
func (p *Proxy) pipeCapsules(dst io.Writer, src io.Reader) {
	fwd := writerFunc(func(b []byte) (int, error) {
		if p.blackhole.Load() || p.dropToTarget.Load() {
			return len(b), nil
		}
		return dst.Write(b)
	})
	hdr := make([]byte, capsuleHeader)
	for {
		if _, err := io.ReadFull(src, hdr); err != nil {
			return
		}
		if p.masked[hdr[capsuleOpcode]] {
			hdr[capsuleOpcode] = opUnassigned
			p.st.masked.Add(1)
		}
		if _, err := fwd.Write(hdr); err != nil {
			return
		}
		n := int64(binary.LittleEndian.Uint32(hdr[capsuleLength:]))
		if _, err := io.CopyN(fwd, src, n); err != nil {
			return
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
