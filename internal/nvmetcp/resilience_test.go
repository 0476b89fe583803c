package nvmetcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dlfs/internal/blockdev"
	"dlfs/internal/chaos"
	"dlfs/internal/metrics"
)

// startStallServer runs a fake target that completes the hello handshake
// and then swallows every command without replying — the hung-target
// case deadlines and close-notification must handle.
func startStallServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns[c] = struct{}{}
			mu.Unlock()
			go func(c net.Conn) {
				hello, err := readCapsule(c)
				if err != nil || hello.opcode != opHello {
					c.Close() //nolint:errcheck
					return
				}
				writeCapsule(c, &capsule{opcode: opHello, offset: 16, cmdID: 1 << 20}) //nolint:errcheck
				for {
					if _, err := readCapsule(c); err != nil {
						return // swallow commands until the peer goes away
					}
				}
			}(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close() //nolint:errcheck
		mu.Lock()
		for c := range conns {
			c.Close() //nolint:errcheck
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

func TestHandshakeWrongOpcodeReported(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close() //nolint:errcheck
		readCapsule(c)  //nolint:errcheck
		// Reply with a non-hello opcode: the client must name it.
		writeCapsule(c, &capsule{opcode: opRead, offset: 8}) //nolint:errcheck
	}()
	_, err = Connect(ln.Addr().String())
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("want ErrHandshake, got %v", err)
	}
	want := "unexpected opcode 1"
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not report the unexpected opcode", err)
	}
}

func TestConnectBlackholedTargetTimesOut(t *testing.T) {
	// A listener that accepts and never replies: Connect must not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	go func() {
		for {
			if _, err := ln.Accept(); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	_, err = ConnectOptions(ln.Addr().String(), Options{DialTimeout: 100 * time.Millisecond})
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("want ErrHandshake, got %v", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("handshake timeout should be retryable: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Connect blocked %v despite 100ms dial timeout", elapsed)
	}
}

func TestRequestTimeout(t *testing.T) {
	addr := startStallServer(t)
	in, err := ConnectOptions(addr, Options{RequestTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	start := time.Now()
	_, err = in.ReadAt(make([]byte, 64), 0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !IsRetryable(err) {
		t.Fatal("timeout must be retryable")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ReadAt blocked %v despite 50ms deadline", elapsed)
	}
	// The timed-out command's pending entry was withdrawn.
	in.mu.Lock()
	n := len(in.pending)
	in.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d pending entries leaked after timeout", n)
	}
}

func TestCloseMidRequestUnblocksAwait(t *testing.T) {
	// Deadlines disabled: only the close notification can release the
	// waiter. Run with -race to catch ordering bugs between Close and
	// receiveLoop.
	addr := startStallServer(t)
	in, err := ConnectOptions(addr, Options{RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := in.ReadAt(make([]byte, 64), 0)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read reach await
	if err := in.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight read after Close: %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight read still blocked 2s after Close")
	}
	// Subsequent submits fail fast too.
	if _, err := in.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestConnLossFailsPendingTyped(t *testing.T) {
	tgt, addr := startTarget(t, 1<<20, 8)
	in, err := ConnectOptions(addr, Options{RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	errc := make(chan error, 1)
	go func() {
		_, err := in.ReadAt(make([]byte, 8), 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	tgt.Close() //nolint:errcheck
	select {
	case err := <-errc:
		// The read may have completed before the teardown; if it failed,
		// the failure must be the typed, retryable connection-loss error.
		if err != nil && !errors.Is(err, ErrConnLost) {
			t.Fatalf("pending failed with %v, want ErrConnLost", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending read not released by connection loss")
	}
	// Every later command observes the loss as a typed error.
	if _, err := in.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrConnLost) || !IsRetryable(err) {
		t.Fatalf("read on lost connection: %v", err)
	}
}

func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrTimeout, true},
		{ErrConnLost, true},
		{ErrDepthLimit, true},
		{ErrClosed, false},
		{ErrRemote, false},
		{errors.New("unrelated"), false},
	}
	for _, c := range cases {
		if got := IsRetryable(c.err); got != c.want {
			t.Errorf("IsRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestReconnectorRecoversFromConnKill(t *testing.T) {
	_, addr := startTarget(t, 8<<20, 16)
	proxy := chaos.NewProxy(addr, chaos.Config{})
	paddr, err := proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close() //nolint:errcheck

	ctr := &metrics.Resilience{}
	rc, err := NewReconnector(paddr,
		Options{DialTimeout: time.Second, RequestTimeout: time.Second},
		RetryPolicy{MaxRetries: 6, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond},
		ctr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close() //nolint:errcheck

	data := []byte("survives a dropped fabric connection")
	if _, err := rc.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	if proxy.KillActive() == 0 {
		t.Fatal("no live connection to kill")
	}
	got := make([]byte, len(data))
	if _, err := rc.ReadAt(got, 4096); err != nil {
		t.Fatalf("read after connection kill: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("corrupt read after reconnect: %q", got)
	}
	if ctr.Reconnects.Load() < 1 {
		t.Fatalf("reconnects = %d, want >= 1", ctr.Reconnects.Load())
	}
	if ctr.Retries.Load() < 1 {
		t.Fatalf("retries = %d, want >= 1", ctr.Retries.Load())
	}
}

func TestReconnectorRetryBudgetExhausted(t *testing.T) {
	tgt, addr := startTarget(t, 1<<20, 8)
	ctr := &metrics.Resilience{}
	rc, err := NewReconnector(addr,
		Options{DialTimeout: 200 * time.Millisecond, RequestTimeout: 200 * time.Millisecond},
		RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		ctr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close() //nolint:errcheck
	tgt.Close()      //nolint:errcheck

	start := time.Now()
	_, err = rc.ReadAt(make([]byte, 8), 0)
	if err == nil {
		t.Fatal("read against dead target succeeded")
	}
	if !IsRetryable(err) {
		t.Fatalf("exhausted-budget error should stay classified retryable: %v", err)
	}
	if got := ctr.Retries.Load(); got != 3 {
		t.Fatalf("retries = %d, want exactly the budget of 3", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("budget exhaustion took %v", elapsed)
	}
}

func TestReconnectorDoesNotRetryRemoteErrors(t *testing.T) {
	_, addr := startTarget(t, 4096, 8)
	ctr := &metrics.Resilience{}
	rc, err := NewReconnector(addr, Options{}, RetryPolicy{}, ctr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close() //nolint:errcheck
	if _, err := rc.ReadAt(make([]byte, 100), 4090); !errors.Is(err, ErrRemote) {
		t.Fatalf("out-of-range read: %v, want ErrRemote", err)
	}
	if got := ctr.Retries.Load(); got != 0 {
		t.Fatalf("remote error consumed %d retries", got)
	}
}

func TestReconnectorBackoffCappedAndJittered(t *testing.T) {
	_, addr := startTarget(t, 1<<20, 8)
	rc, err := NewReconnector(addr, Options{},
		RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close() //nolint:errcheck
	for attempt := 0; attempt < 12; attempt++ {
		d := rc.backoff(attempt)
		if d <= 0 || d > 80*time.Millisecond {
			t.Fatalf("backoff(%d) = %v outside (0, 80ms]", attempt, d)
		}
	}
	// Same seed replays the same jitter schedule.
	a, _ := NewReconnector(addr, Options{}, RetryPolicy{Seed: 7}, nil)
	b, _ := NewReconnector(addr, Options{}, RetryPolicy{Seed: 7}, nil)
	defer a.Close() //nolint:errcheck
	defer b.Close() //nolint:errcheck
	for i := 0; i < 8; i++ {
		if da, db := a.backoff(i), b.backoff(i); da != db {
			t.Fatalf("seeded backoff diverged at %d: %v vs %v", i, da, db)
		}
	}
}

// TestServeConnMalformedCapsules drives the target with the chaos
// corruption corpus over raw sockets: every malformed stream must drop
// only its own connection, leave the target serving, and bump the
// malformed counter for frames with bad magic or oversized lengths.
func TestServeConnMalformedCapsules(t *testing.T) {
	tgt, addr := startTarget(t, 1<<20, 8)

	sendRaw := func(raw []byte, afterHandshake bool) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		if afterHandshake {
			if err := writeCapsule(c, &capsule{opcode: opHello}); err != nil {
				t.Fatal(err)
			}
			if _, err := readCapsule(c); err != nil {
				t.Fatal(err)
			}
		}
		c.Write(raw) //nolint:errcheck
		// Wait for the server to drop us (read returns when it closes).
		c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		buf := make([]byte, 1)
		for {
			if _, err := c.Read(buf); err != nil {
				return
			}
		}
	}

	for _, seed := range corruptSeeds() {
		sendRaw(seed, false) // malformed handshake
		sendRaw(seed, true)  // malformed command after a clean handshake
	}

	// Bad-magic and oversized frames are counted; truncated frames are
	// indistinguishable from teardown mid-frame and only drop the conn.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, malformed, _ := tgt.ConnStats(); malformed >= 4 {
			break
		}
		if time.Now().After(deadline) {
			_, malformed, _ := tgt.ConnStats()
			t.Fatalf("malformed = %d, want >= 4", malformed)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The target survived all of it: a clean client still works.
	in, err := Connect(addr)
	if err != nil {
		t.Fatalf("target died after malformed streams: %v", err)
	}
	defer in.Close() //nolint:errcheck
	if _, err := in.WriteAt([]byte("still alive"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 11)
	if _, err := in.ReadAt(got, 0); err != nil || string(got) != "still alive" {
		t.Fatalf("read after chaos: %q, %v", got, err)
	}
}

// TestWriteErrorAbortsPending reproduces the lost-write-error bug: a
// client that submits a burst of large reads and then vanishes without
// consuming responses must not leave sibling commands executing silently
// against the dead connection. The flusher's write deadline trips, the
// connection is aborted, and the undeliverable completions are counted.
func TestWriteErrorAbortsPending(t *testing.T) {
	store := blockdev.New(64 << 20)
	if _, err := store.WriteAt(make([]byte, 32<<20), 0); err != nil {
		t.Fatal(err)
	}
	tgt := NewTargetConfig(store, Config{Depth: 64, WriteTimeout: 150 * time.Millisecond})
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tgt.Close() }) //nolint:errcheck

	// Raw client: handshake, then post reads big enough to overrun the
	// socket buffers while never reading a single response byte.
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if err := writeCapsule(c, &capsule{opcode: opHello}); err != nil {
		t.Fatal(err)
	}
	if _, err := readCapsule(c); err != nil {
		t.Fatal(err)
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], 1<<20)
	for i := 0; i < 64; i++ {
		if err := writeCapsule(c, &capsule{cmdID: uint64(i), opcode: opRead, offset: uint64(i) << 20, payload: lenBuf[:]}); err != nil {
			break // submission path may already be backpressured; fine
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, aborted := tgt.ConnStats(); aborted > 0 {
			break
		}
		if time.Now().After(deadline) {
			_, _, aborted := tgt.ConnStats()
			t.Fatalf("aborted = %d after write stall, want > 0", aborted)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The target survived the abort: a clean client still round-trips,
	// and the worker pool is not wedged.
	in, err := Connect(addr)
	if err != nil {
		t.Fatalf("connect after aborted conn: %v", err)
	}
	defer in.Close() //nolint:errcheck
	if _, err := in.ReadAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("read after aborted conn: %v", err)
	}
}

// TestTargetCloseRacesVectoredReads closes the target while a stream of
// vectored reads is in flight across several connections: every pending
// command must resolve (success or typed error), Close must return, and
// under -race the RPQ workers, flushers and readers must tear down
// cleanly.
func TestTargetCloseRacesVectoredReads(t *testing.T) {
	data := make([]byte, 8<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	store := blockdev.New(int64(len(data)))
	if _, err := store.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	tgt := NewTargetConfig(store, Config{Depth: 32, Workers: 4, QueueDepth: 64})
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		in, err := Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(in *Initiator, g int) {
			defer wg.Done()
			defer in.Close() //nolint:errcheck
			bufs := make([]byte, 3*4096)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base := int64(((g*1000 + i) * 4096) % (7 << 20))
				segs := []Seg{
					{Dst: bufs[:4096], Off: base},
					{Dst: bufs[4096:8192], Off: base + 4096},
					{Dst: bufs[8192:], Off: base + 8192},
				}
				if _, err := in.ReadVec(segs); err != nil {
					return // teardown error is the expected exit
				}
				if !bytes.Equal(bufs[:4096], data[base:base+4096]) {
					t.Errorf("reader %d corrupt at %d", g, base)
					return
				}
			}
		}(in, g)
	}

	time.Sleep(50 * time.Millisecond) // let reads pile onto the RPQ
	done := make(chan error, 1)
	go func() { done <- tgt.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Target.Close did not drain the engine")
	}
	close(stop)
	wg.Wait()
}

// TestWorkerPoolDrainsCleanly hammers a small worker pool through a full
// load/close cycle twice, checking the engine restarts nothing and drops
// nothing: all served commands are accounted and a second Close is a
// no-op.
func TestWorkerPoolDrainsCleanly(t *testing.T) {
	store := blockdev.New(4 << 20)
	if _, err := store.WriteAt(make([]byte, 4<<20), 0); err != nil {
		t.Fatal(err)
	}
	tgt := NewTargetConfig(store, Config{Depth: 16, Workers: 2, QueueDepth: 8})
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const clients, perClient = 4, 200
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in, err := Connect(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer in.Close() //nolint:errcheck
			buf := make([]byte, 2048)
			for i := 0; i < perClient; i++ {
				if _, err := in.ReadAt(buf, int64((g*perClient+i)*2048)%(3<<20)); err != nil {
					t.Errorf("client %d read %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	cmds, _ := tgt.Served()
	if cmds < clients*perClient {
		t.Fatalf("served %d commands, want >= %d", cmds, clients*perClient)
	}
	st := tgt.ServerStats()
	if st.FlushedCmds < clients*perClient {
		t.Fatalf("flushed %d completions, want >= %d", st.FlushedCmds, clients*perClient)
	}
	if _, _, aborted := tgt.ConnStats(); aborted != 0 {
		t.Fatalf("clean run aborted %d completions", aborted)
	}
	if err := tgt.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := tgt.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestServeConnOversizedReadLength exercises the command-level length
// check (a read asking for more than maxPayload) rather than the frame
// parser: it must fail with a range status, not kill the target.
func TestServeConnOversizedReadLength(t *testing.T) {
	_, addr := startTarget(t, 1<<20, 8)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(maxPayload+1))
	pc := getPending()
	id, err := in.submit(&capsule{opcode: opRead, offset: 0, payload: lenBuf[:]}, pc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.await(pc, id); !errors.Is(err, ErrRemote) {
		t.Fatalf("oversized read length: %v, want ErrRemote", err)
	}
}

// TestDeadlineTimerRearmedPerCommand: the deadline timer lives in the
// pooled pendingCmd and is re-armed by every Wait. With deadlines that
// straddle the loopback round trip some commands complete, some time
// out, and some do both at once; whichever way each goes, none may
// report a timeout before its deadline has passed, which is what a tick
// left behind in a re-used timer's channel would cause.
func TestDeadlineTimerRearmedPerCommand(t *testing.T) {
	_, addr := startTarget(t, 1<<20, 16)
	buf := make([]byte, 512)
	for _, d := range []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 40 * time.Microsecond, 80 * time.Microsecond} {
		in, err := ConnectOptions(addr, Options{RequestTimeout: d})
		if err != nil {
			t.Fatal(err)
		}
		oks, timeouts, redials := 0, 0, 0
		for i := 0; i < 1000; i++ {
			start := time.Now()
			_, err := in.ReadAt(buf, 0)
			elapsed := time.Since(start)
			switch {
			case err == nil:
				oks++
			case errors.Is(err, ErrTimeout):
				timeouts++
				if elapsed < d {
					t.Fatalf("command %d timed out after %v, deadline %v", i, elapsed, d)
				}
			default:
				// The same deadline bounds the socket's reads and writes;
				// one of those gave up, which costs the connection.
				redials++
				in.Close() //nolint:errcheck
				if in, err = ConnectOptions(addr, Options{RequestTimeout: d}); err != nil {
					t.Fatal(err)
				}
			}
		}
		in.Close() //nolint:errcheck
		t.Logf("deadline %v: %d completed, %d timed out, %d redials", d, oks, timeouts, redials)
	}
}
