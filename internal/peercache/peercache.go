// Package peercache is the cooperative client-side sample cache wire
// protocol: every rank of a cluster mount hosts a tiny framed TCP
// service ("DLPC") that serves samples out of its local read cache, so
// a sample crosses the storage-target wire once per *cluster* instead
// of once per rank (the FanStore idea, reproduced at user level).
//
// Cache ownership is placed consistently across ranks (the live client
// derives the owner from the same hash placement the directory uses),
// so for any sample every rank agrees on which peer to ask. The
// protocol is deliberately minimal — one synchronous request per
// round-trip — because the fallback path matters more than raw
// fan-out: a dead or slow peer must degrade a read to the origin
// target, never stall it. All client failures surface as typed errors
// matching ErrUnavailable (transport) or ErrMiss (peer answered but
// declined), so callers can count fallbacks precisely.
//
// Framing is internal/wire's, with the request sequence number as the
// frame's tag:
//
//	frame := magic(u32 "DLPC") | op(u8) | seq(u32) | length(u32) | payload
//
// opGet carries an 8-byte sample index; opData answers with the sample
// bytes; opMiss answers that the peer declined to serve (shutting down,
// index unknown); opErr carries a reason string. seq echoes the request
// so a client can detect protocol desync. Length prefixes are capped
// per opcode — a corrupt control frame cannot demand a data-sized
// allocation.
package peercache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dlfs/internal/wire"
)

// Magic guards against cross-protocol connections ("DLPC").
const Magic = 0x444C5043

// Opcodes.
const (
	opGet byte = iota + 1
	opData
	opMiss
	opErr
)

// Limits: a data frame carries one sample (64 MiB covers any sample the
// client pipeline handles); every other opcode is a small control frame.
const (
	maxDataPayload    = 64 << 20
	maxControlPayload = 64 << 10
	getPayloadSize    = 8
)

// payloadLimit returns the largest payload an opcode may carry. Unknown
// opcodes are treated as control frames so they cannot trigger a large
// allocation before being rejected.
func payloadLimit(op byte) uint32 {
	if op == opData {
		return maxDataPayload
	}
	return maxControlPayload
}

// Errors.
var (
	// ErrUnavailable marks a peer fetch that failed at the transport:
	// dial refused, connection lost, deadline exceeded. Match with
	// errors.Is; the concrete error is a *PeerError.
	ErrUnavailable = errors.New("peercache: peer unavailable")
	// ErrMiss marks a peer that answered but declined to serve the
	// sample. Match with errors.Is; the concrete error is a *PeerError.
	ErrMiss = errors.New("peercache: peer miss")
	// ErrProtocol reports a malformed or unexpected frame.
	ErrProtocol = errors.New("peercache: protocol error")
	// ErrFrameTooLarge marks a frame whose length prefix exceeds the
	// opcode's payload cap. Match with errors.Is; the concrete error is
	// a *FrameSizeError.
	ErrFrameTooLarge = errors.New("peercache: frame exceeds size limit")
	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("peercache: closed")
)

// FrameSizeError reports an oversized frame: which opcode, the claimed
// payload length, and the cap it broke. It unwraps to both
// ErrFrameTooLarge and ErrProtocol.
type FrameSizeError = wire.FrameSizeError

// proto is DLPC over the shared frame codec; a frame's tag is the
// request sequence number.
var proto = wire.Proto{Magic: Magic, Limit: payloadLimit, Malformed: ErrProtocol, TooLarge: ErrFrameTooLarge}

// PeerError reports a failed fetch against one peer. It unwraps to
// ErrUnavailable or ErrMiss depending on the failure class, so the
// caller's fallback accounting can distinguish dead peers from declines.
type PeerError struct {
	Addr string // the peer's service address
	Kind error  // ErrUnavailable or ErrMiss
	Err  error  // underlying transport/protocol error (may be nil)
}

func (e *PeerError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("peercache: peer %s: %v: %v", e.Addr, e.Kind, e.Err)
	}
	return fmt.Sprintf("peercache: peer %s: %v", e.Addr, e.Kind)
}

// Unwrap lets errors.Is match the failure class (and any wrapped
// transport error).
func (e *PeerError) Unwrap() []error {
	if e.Err != nil {
		return []error{e.Kind, e.Err}
	}
	return []error{e.Kind}
}

// Handler serves one sample by dataset index. The returned buffer is
// written to the wire and then handed to Options.Release (when set), so
// implementations can return pooled memory. An error answers the peer
// with opMiss — the requester falls back to origin; the handler's error
// text travels in an opErr only for non-recoverable protocol abuse.
type Handler func(idx int) ([]byte, error)

// Options tunes a Server or Client.
type Options struct {
	// DialTimeout bounds a client's connection establishment (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds one fetch round-trip on the client and one
	// response write on the server (default 2s; <0 disables).
	RequestTimeout time.Duration
	// Release, on a server, receives each served buffer after it is
	// written so pooled memory can be recycled (nil drops buffers).
	Release func([]byte)
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 2 * time.Second
	} else if o.RequestTimeout < 0 {
		o.RequestTimeout = -1
	}
	return o
}

// Server hosts one rank's share of the cooperative cache.
type Server struct {
	handler Handler
	opt     Options

	served atomic.Int64 // samples answered with opData
	missed atomic.Int64 // requests answered with opMiss

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server answering opGet through handler.
func NewServer(h Handler, opt Options) *Server {
	return &Server{handler: h, opt: opt.withDefaults(), conns: make(map[net.Conn]struct{})}
}

// Listen starts serving on addr and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close() //nolint:errcheck
		return "", ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close() //nolint:errcheck
				return
			}
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(c)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Stats reports samples served to peers and requests answered with a
// miss.
func (s *Server) Stats() (served, missed int64) {
	return s.served.Load(), s.missed.Load()
}

// Close stops the listener and severs every peer connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	s.wg.Wait()
	return err
}

// serveConn answers one peer's requests until its connection drops or a
// malformed frame arrives.
func (s *Server) serveConn(c net.Conn) {
	defer func() {
		c.Close() //nolint:errcheck
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	var hdr wire.Header
	for {
		f, err := proto.Read(c, &hdr, nil)
		if err != nil {
			return
		}
		if f.Op != opGet || len(f.Payload) != getPayloadSize {
			s.answer(c, &hdr, &wire.Frame{Op: opErr, Tag: f.Tag, Payload: []byte("expected get")}) //nolint:errcheck
			return
		}
		idx := int(int64(binary.LittleEndian.Uint64(f.Payload)))
		buf, herr := s.handler(idx)
		if herr != nil || buf == nil {
			s.missed.Add(1)
			if s.answer(c, &hdr, &wire.Frame{Op: opMiss, Tag: f.Tag}) != nil {
				return
			}
			continue
		}
		werr := s.answer(c, &hdr, &wire.Frame{Op: opData, Tag: f.Tag, Payload: buf})
		if s.opt.Release != nil {
			s.opt.Release(buf)
		}
		if werr != nil {
			return
		}
		s.served.Add(1)
	}
}

// answer writes one response under the request deadline.
func (s *Server) answer(c net.Conn, hdr *wire.Header, f *wire.Frame) error {
	if s.opt.RequestTimeout > 0 {
		c.SetWriteDeadline(time.Now().Add(s.opt.RequestTimeout)) //nolint:errcheck
	}
	return proto.Write(c, hdr, f)
}

// Client fetches samples from one peer's server. It dials lazily,
// serialises requests on one connection, and drops the connection on
// any failure so the next fetch re-dials — a dead peer costs one
// deadline per fetch attempt, never a wedge.
type Client struct {
	addr string
	opt  Options

	mu     sync.Mutex
	conn   net.Conn
	seq    uint32
	closed bool
	hdr    wire.Header // scratch for the one frame in flight, under mu
}

// NewClient returns a client for the peer service at addr.
func NewClient(addr string, opt Options) *Client {
	return &Client{addr: addr, opt: opt.withDefaults()}
}

// Addr reports the peer's service address.
func (c *Client) Addr() string { return c.addr }

// Fetch requests one sample by dataset index. alloc, when non-nil,
// supplies the payload buffer (pass a buffer pool's Get). Failures are
// typed: transport problems match ErrUnavailable, a peer that answered
// but declined matches ErrMiss.
func (c *Client) Fetch(idx int, alloc func(int) []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, &PeerError{Addr: c.addr, Kind: ErrUnavailable, Err: ErrClosed}
	}
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, c.opt.DialTimeout)
		if err != nil {
			return nil, &PeerError{Addr: c.addr, Kind: ErrUnavailable, Err: err}
		}
		c.conn = conn
	}
	if c.opt.RequestTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opt.RequestTimeout)) //nolint:errcheck
	}
	c.seq++
	seq := c.seq
	var req [getPayloadSize]byte
	binary.LittleEndian.PutUint64(req[:], uint64(idx))
	if err := proto.Write(c.conn, &c.hdr, &wire.Frame{Op: opGet, Tag: seq, Payload: req[:]}); err != nil {
		return nil, c.fail(err)
	}
	f, err := proto.Read(c.conn, &c.hdr, alloc)
	if err != nil {
		return nil, c.fail(err)
	}
	if f.Tag != seq {
		return nil, c.fail(fmt.Errorf("%w: response seq %d for request %d", ErrProtocol, f.Tag, seq))
	}
	switch f.Op {
	case opData:
		return f.Payload, nil
	case opMiss:
		return nil, &PeerError{Addr: c.addr, Kind: ErrMiss}
	case opErr:
		return nil, c.fail(fmt.Errorf("%w: peer error: %s", ErrProtocol, f.Payload))
	default:
		return nil, c.fail(fmt.Errorf("%w: unexpected opcode %d", ErrProtocol, f.Op))
	}
}

// fail drops the connection (so the next Fetch re-dials) and wraps the
// error as unavailable. Called with the client lock held.
func (c *Client) fail(err error) error {
	if c.conn != nil {
		c.conn.Close() //nolint:errcheck
		c.conn = nil
	}
	return &PeerError{Addr: c.addr, Kind: ErrUnavailable, Err: err}
}

// Close drops the connection; subsequent fetches fail typed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}
