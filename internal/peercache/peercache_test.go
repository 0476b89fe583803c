package peercache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dlfs/internal/wire"
)

// echoHandler serves a deterministic payload derived from the index, or
// a miss for negative indices.
func echoHandler(idx int) ([]byte, error) {
	if idx < 0 {
		return nil, errors.New("no such sample")
	}
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(idx + i)
	}
	return buf, nil
}

func startServer(t *testing.T, h Handler, opt Options) (*Server, string) {
	t.Helper()
	srv := NewServer(h, opt)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return srv, addr
}

func TestFetchRoundTrip(t *testing.T) {
	srv, addr := startServer(t, echoHandler, Options{})
	cl := NewClient(addr, Options{})
	defer cl.Close() //nolint:errcheck

	for _, idx := range []int{0, 7, 1 << 20} {
		got, err := cl.Fetch(idx, nil)
		if err != nil {
			t.Fatalf("fetch %d: %v", idx, err)
		}
		want, _ := echoHandler(idx)
		if !bytes.Equal(got, want) {
			t.Fatalf("fetch %d returned wrong payload", idx)
		}
	}
	if served, missed := srv.Stats(); served != 3 || missed != 0 {
		t.Fatalf("server stats served=%d missed=%d", served, missed)
	}
}

// TestFetchAllocUsesPool asserts the payload buffer comes from the
// caller's allocator (how the live client lands peer samples in pooled
// memory).
func TestFetchAllocUsesPool(t *testing.T) {
	_, addr := startServer(t, echoHandler, Options{})
	cl := NewClient(addr, Options{})
	defer cl.Close() //nolint:errcheck

	var allocs atomic.Int64
	alloc := func(n int) []byte {
		allocs.Add(1)
		return make([]byte, n)
	}
	if _, err := cl.Fetch(3, alloc); err != nil {
		t.Fatal(err)
	}
	if allocs.Load() != 1 {
		t.Fatalf("allocator called %d times, want 1", allocs.Load())
	}
}

// TestFetchMissTyped: a handler error answers opMiss, surfacing as a
// typed ErrMiss so the caller can fall back to origin.
func TestFetchMissTyped(t *testing.T) {
	srv, addr := startServer(t, echoHandler, Options{})
	cl := NewClient(addr, Options{})
	defer cl.Close() //nolint:errcheck

	_, err := cl.Fetch(-1, nil)
	if !errors.Is(err, ErrMiss) {
		t.Fatalf("want ErrMiss, got %v", err)
	}
	if errors.Is(err, ErrUnavailable) {
		t.Fatalf("a miss must not look unavailable: %v", err)
	}
	// The connection survives a miss: the next fetch works.
	if _, err := cl.Fetch(1, nil); err != nil {
		t.Fatalf("fetch after miss: %v", err)
	}
	if _, missed := srv.Stats(); missed != 1 {
		t.Fatalf("missed=%d, want 1", missed)
	}
}

// TestFetchUnavailableTyped: transport failures (nothing listening, dead
// server) surface as ErrUnavailable with the peer address attached.
func TestFetchUnavailableTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck

	cl := NewClient(addr, Options{DialTimeout: 200 * time.Millisecond})
	defer cl.Close() //nolint:errcheck
	_, err = cl.Fetch(0, nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Addr != addr {
		t.Fatalf("want *PeerError carrying %s, got %v", addr, err)
	}
}

// TestServerCloseSeversClients: closing the server mid-session fails the
// next fetch typed (unavailable), and the client re-dials cleanly when a
// new server appears on the same handler.
func TestServerCloseSeversClients(t *testing.T) {
	srv, addr := startServer(t, echoHandler, Options{})
	cl := NewClient(addr, Options{RequestTimeout: 500 * time.Millisecond})
	defer cl.Close() //nolint:errcheck
	if _, err := cl.Fetch(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Fetch(2, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("fetch against closed server: want ErrUnavailable, got %v", err)
	}
}

// TestReleaseRecyclesServedBuffers: the server hands every served buffer
// to Options.Release after writing it.
func TestReleaseRecyclesServedBuffers(t *testing.T) {
	var released atomic.Int64
	opt := Options{Release: func(b []byte) { released.Add(int64(len(b))) }}
	_, addr := startServer(t, echoHandler, opt)
	cl := NewClient(addr, Options{})
	defer cl.Close() //nolint:errcheck
	got, err := cl.Fetch(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for released.Load() != int64(len(got)) {
		if time.Now().After(deadline) {
			t.Fatalf("released %d bytes, want %d", released.Load(), len(got))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameSizeError: a length prefix past the opcode's cap is rejected
// typed, before any allocation of the claimed size.
func TestFrameSizeError(t *testing.T) {
	var raw bytes.Buffer
	hdr := make([]byte, wire.HeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = opGet
	binary.LittleEndian.PutUint32(hdr[9:13], maxControlPayload+1)
	raw.Write(hdr)
	_, err := proto.Read(&raw, new(wire.Header), nil)
	if !errors.Is(err, ErrFrameTooLarge) || !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrFrameTooLarge and ErrProtocol, got %v", err)
	}
	var fse *FrameSizeError
	if !errors.As(err, &fse) || fse.Op != opGet || fse.Size != maxControlPayload+1 {
		t.Fatalf("FrameSizeError fields wrong: %+v", fse)
	}
}

// TestBadMagicRejected: a cross-protocol connection fails on the first
// frame without panicking.
func TestBadMagicRejected(t *testing.T) {
	raw := bytes.NewReader(append([]byte("GET / HTTP/1.1\r\n"), make([]byte, 32)...))
	if _, err := proto.Read(raw, new(wire.Header), nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
}

// TestServerRejectsMalformedGet: a get with a wrong-sized payload gets an
// opErr answer and the connection is dropped — peers cannot wedge a
// server with garbage.
func TestServerRejectsMalformedGet(t *testing.T) {
	_, addr := startServer(t, echoHandler, Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	if err := proto.Write(conn, new(wire.Header), &wire.Frame{Op: opGet, Tag: 1, Payload: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	f, err := proto.Read(conn, new(wire.Header), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != opErr {
		t.Fatalf("want opErr answer, got opcode %d", f.Op)
	}
	if _, err := proto.Read(conn, new(wire.Header), nil); err != io.EOF {
		t.Fatalf("connection should be dropped after protocol abuse, got %v", err)
	}
}

// TestConcurrentFetches: many goroutines sharing one client serialise
// correctly (seq echo catches any interleaving bug).
func TestConcurrentFetches(t *testing.T) {
	_, addr := startServer(t, echoHandler, Options{})
	cl := NewClient(addr, Options{})
	defer cl.Close() //nolint:errcheck

	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 25; i++ {
				idx := g*100 + i
				got, err := cl.Fetch(idx, nil)
				if err != nil {
					errc <- err
					return
				}
				want, _ := echoHandler(idx)
				if !bytes.Equal(got, want) {
					errc <- fmt.Errorf("fetch %d returned wrong payload", idx)
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
