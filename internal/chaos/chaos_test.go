package chaos

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes everything back.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close() //nolint:errcheck
				io.Copy(c, c)   //nolint:errcheck
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() }) //nolint:errcheck
	return ln.Addr().String()
}

func dialProxy(t *testing.T, target string, cfg Config) (*Proxy, net.Conn) {
	t.Helper()
	p := NewProxy(target, cfg)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() }) //nolint:errcheck
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return p, c
}

func TestProxyForwardsCleanly(t *testing.T) {
	_, c := dialProxy(t, echoServer(t), Config{})
	msg := []byte("through the healthy fabric")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("proxied echo diverged: %q", got)
	}
}

func TestDropKillsConnection(t *testing.T) {
	p, c := dialProxy(t, echoServer(t), Config{Seed: 1, DropProb: 1})
	c.Write([]byte("doomed"))                          //nolint:errcheck
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(c, make([]byte, 6)); err == nil {
		t.Fatal("read succeeded through DropProb=1 proxy")
	}
	if p.Stats().Kills < 1 {
		t.Fatalf("kills = %d", p.Stats().Kills)
	}
}

func TestDelayStallsSegments(t *testing.T) {
	_, c := dialProxy(t, echoServer(t), Config{Seed: 2, DelayProb: 1, Delay: 60 * time.Millisecond})
	start := time.Now()
	c.Write([]byte("slow")) //nolint:errcheck
	if _, err := io.ReadFull(c, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	// Request and reply each cross the fault layer at least once.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("round trip took %v, want >= one 60ms delay", elapsed)
	}
}

func TestCorruptionFlipsBytes(t *testing.T) {
	_, c := dialProxy(t, echoServer(t), Config{Seed: 3, CorruptProb: 1})
	msg := bytes.Repeat([]byte{0x00}, 32)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("CorruptProb=1 stream arrived intact")
	}
}

func TestThrottleLimitsBandwidth(t *testing.T) {
	// 64 KiB at 256 KiB/s must take at least ~250ms one way.
	_, c := dialProxy(t, echoServer(t), Config{Seed: 4, ThrottleBytesPerSec: 256 << 10})
	payload := make([]byte, 64<<10)
	start := time.Now()
	go c.Write(payload) //nolint:errcheck
	if _, err := io.ReadFull(c, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("64KiB crossed a 256KiB/s throttle in %v", elapsed)
	}
}

func TestMaxConnBytesDisconnectsMidStream(t *testing.T) {
	_, c := dialProxy(t, echoServer(t), Config{Seed: 5, MaxConnBytes: 4 << 10})
	payload := make([]byte, 64<<10)
	c.Write(payload)                                   //nolint:errcheck
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	n, err := io.ReadFull(c, make([]byte, len(payload)))
	if err == nil || n >= len(payload) {
		t.Fatalf("read %d/%d bytes through a 4KiB-budget connection", n, len(payload))
	}
}

func TestBlackholeSwallowsTraffic(t *testing.T) {
	p, c := dialProxy(t, echoServer(t), Config{Seed: 6})
	// Healthy first.
	c.Write([]byte("ok")) //nolint:errcheck
	if _, err := io.ReadFull(c, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	p.SetBlackhole(true)
	c.Write([]byte("void"))                                   //nolint:errcheck
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	if _, err := io.ReadFull(c, make([]byte, 4)); err == nil {
		t.Fatal("read returned data through a blackholed proxy")
	}
	// Recovery: new traffic flows again once the blackhole lifts. The
	// "void" bytes were dropped forever, so use a fresh connection.
	p.SetBlackhole(false)
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()                                    //nolint:errcheck
	c2.Write([]byte("back"))                            //nolint:errcheck
	c2.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(c2, make([]byte, 4)); err != nil {
		t.Fatalf("traffic did not recover after blackhole lifted: %v", err)
	}
}

func TestAsymmetricPartitionDropsOneDirection(t *testing.T) {
	p, c := dialProxy(t, echoServer(t), Config{Seed: 8})
	// Healthy first.
	c.Write([]byte("ok")) //nolint:errcheck
	if _, err := io.ReadFull(c, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}

	// Drop only the return path: the echo server hears us, but its
	// replies vanish — the classic "can send, cannot hear" failure.
	p.SetPartition(false, true)
	c.Write([]byte("deaf"))                                   //nolint:errcheck
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	if _, err := io.ReadFull(c, make([]byte, 4)); err == nil {
		t.Fatal("read returned data across a dropped return path")
	}

	// Flip to dropping only the forward path on a fresh connection: our
	// bytes vanish before the server, so nothing comes back either.
	p.SetPartition(true, false)
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()                                           //nolint:errcheck
	c2.Write([]byte("mute"))                                   //nolint:errcheck
	c2.SetReadDeadline(time.Now().Add(100 * time.Millisecond)) //nolint:errcheck
	if _, err := io.ReadFull(c2, make([]byte, 4)); err == nil {
		t.Fatal("echo came back across a dropped forward path")
	}

	// Heal: a fresh connection round-trips again.
	p.SetPartition(false, false)
	c3, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()                                    //nolint:errcheck
	c3.Write([]byte("back"))                            //nolint:errcheck
	c3.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(c3, make([]byte, 4)); err != nil {
		t.Fatalf("traffic did not recover after partition healed: %v", err)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	// Two same-seed wrapped connections over in-memory pipes must make
	// identical fault decisions for the same traffic pattern.
	run := func(seed int64) Stats {
		a, b := net.Pipe()
		defer a.Close() //nolint:errcheck
		defer b.Close() //nolint:errcheck
		wc := Wrap(a, Config{Seed: seed, CorruptProb: 0.5, DelayProb: 0.3, Delay: time.Microsecond}, 1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			buf := make([]byte, 256)
			for i := 0; i < 20; i++ {
				if _, err := io.ReadFull(b, buf); err != nil {
					return
				}
			}
		}()
		payload := make([]byte, 256)
		for i := 0; i < 20; i++ {
			if _, err := wc.Write(payload); err != nil {
				break
			}
		}
		<-done
		return wc.Stats()
	}
	s1, s2 := run(99), run(99)
	if s1 != s2 {
		t.Fatalf("same seed diverged: %+v vs %+v", s1, s2)
	}
	// Different seeds must eventually diverge (any single pair could
	// collide on aggregate counts, so scan a few).
	diverged := false
	for seed := int64(100); seed < 110; seed++ {
		if run(seed) != s1 {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatalf("ten different seeds all produced schedule %+v", s1)
	}
}

func TestKillActiveSeversLiveConns(t *testing.T) {
	p, c := dialProxy(t, echoServer(t), Config{Seed: 7})
	c.Write([]byte("hi")) //nolint:errcheck
	if _, err := io.ReadFull(c, make([]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if n := p.KillActive(); n != 1 {
		t.Fatalf("killed %d connections, want 1", n)
	}
	c.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived KillActive")
	}
}

// TestMaskOpsRewritesOnlyTheOpcode sends three capsules through a
// MaskOps proxy to an echo server: the masked opcode comes back as the
// unassigned one, an unmasked one as it was, and every other byte, a
// payload that itself looks like a masked header included, untouched.
func TestMaskOpsRewritesOnlyTheOpcode(t *testing.T) {
	p := NewProxy(echoServer(t), Config{})
	p.MaskOps(5, 7)
	addr, err := p.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck

	capsule := func(op byte, payload []byte) []byte {
		b := make([]byte, capsuleHeader, capsuleHeader+len(payload))
		for i := range b {
			b[i] = byte(0x40 + i)
		}
		b[capsuleOpcode] = op
		binary.LittleEndian.PutUint32(b[capsuleLength:], uint32(len(payload)))
		return append(b, payload...)
	}
	decoy := capsule(5, nil) // inside a payload it is data, not a header
	sent := bytes.Join([][]byte{capsule(5, decoy), capsule(4, bytes.Repeat([]byte{9}, 40<<10)), capsule(7, nil)}, nil)
	want := bytes.Clone(sent)
	want[capsuleOpcode] = opUnassigned
	want[len(want)-capsuleHeader+capsuleOpcode] = opUnassigned

	go c.Write(sent) //nolint:errcheck
	got := make([]byte, len(sent))
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the stream differs from the one sent in more than the two masked opcode bytes")
	}
	if m := p.Stats().Masked; m != 2 {
		t.Fatalf("Masked = %d, want 2", m)
	}
}
