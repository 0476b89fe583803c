package nvmetcp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"dlfs/internal/chaos"
	"dlfs/internal/metrics"
)

// cmdCase is one opcode as a Command. build makes the command and
// returns what the test checks once it has completed: n, and that the
// bytes are where they should be (read from the store for the writes).
type cmdCase struct {
	name  string
	build func(data []byte) (c Command, wantN int, landed func(read func([]byte, int64)) error)
}

// cmdFill is the byte the next write case fills its source with: a new
// one per command built, so bytes found in the store are that command's.
var cmdFill byte

func cmdCases() []cmdCase {
	const at, n = 8192, 3000
	fill := func(k int) []byte {
		cmdFill++
		return bytes.Repeat([]byte{cmdFill}, k)
	}
	same := func(what string, got, want []byte) error {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: bytes differ", what)
		}
		return nil
	}
	samples := func(xform byte) func([]byte) (Command, int, func(func([]byte, int64)) error) {
		return func(data []byte) (Command, int, func(func([]byte, int64)) error) {
			out := TransformOutLen(xform, n)
			segs := []Seg{{Dst: make([]byte, out), Off: at, N: n}, {Dst: make([]byte, out), Off: at + 4*n, N: n}}
			lens := make([]int, len(segs))
			return Command{Op: OpReadSamples, Segs: segs, Xform: xform, Lens: lens}, 2 * out, func(func([]byte, int64)) error {
				for i, s := range segs {
					body := s.Dst
					if xform == TransformCRC32C {
						var ok bool
						if body, ok = VerifyCRC32C(s.Dst); !ok {
							return fmt.Errorf("record %d: crc32c trailer does not verify", i)
						}
					}
					if lens[i] != out {
						return fmt.Errorf("record %d: lens says %d, want %d", i, lens[i], out)
					}
					if err := same(fmt.Sprint("record ", i), body, data[s.Off:s.Off+n]); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	wrote := func(read func([]byte, int64), off int64, want []byte) error {
		got := make([]byte, len(want))
		read(got, off)
		return same(fmt.Sprint("store at ", off), got, want)
	}
	return []cmdCase{
		{"read", func(data []byte) (Command, int, func(func([]byte, int64)) error) {
			buf := make([]byte, n)
			return Command{Op: OpRead, Buf: buf, Off: at}, n, func(func([]byte, int64)) error {
				return same("buf", buf, data[at:at+n])
			}
		}},
		{"readvec", func(data []byte) (Command, int, func(func([]byte, int64)) error) {
			segs := []Seg{{Dst: make([]byte, n), Off: at}, {Dst: make([]byte, 2*n), Off: 10 * at}}
			return Command{Op: OpReadVec, Segs: segs}, 3 * n, func(func([]byte, int64)) error {
				for i, s := range segs {
					if err := same(fmt.Sprint("segment ", i), s.Dst, data[s.Off:s.Off+int64(len(s.Dst))]); err != nil {
						return err
					}
				}
				return nil
			}
		}},
		{"readsamples-none", samples(TransformNone)},
		{"readsamples-crc32c", samples(TransformCRC32C)},
		{"write", func([]byte) (Command, int, func(func([]byte, int64)) error) {
			src := fill(n)
			return Command{Op: OpWrite, Buf: src, Off: 20 * at}, n, func(read func([]byte, int64)) error {
				return wrote(read, 20*at, src)
			}
		}},
		{"writevec", func([]byte) (Command, int, func(func([]byte, int64)) error) {
			a, b := fill(n), fill(2*n)
			segs := []WSeg{{Src: a, Off: 30 * at}, {Src: b, Off: 40 * at}}
			return Command{Op: OpWriteVec, WSegs: segs}, 3 * n, func(read func([]byte, int64)) error {
				if err := wrote(read, 30*at, a); err != nil {
					return err
				}
				return wrote(read, 40*at, b)
			}
		}},
		{"flush", func([]byte) (Command, int, func(func([]byte, int64)) error) {
			return Command{Op: OpFlush}, 0, func(func([]byte, int64)) error { return nil }
		}},
	}
}

// cmdLayer is one of the three client layers behind the surface they
// share.
type cmdLayer struct {
	name   string
	do     func(Command) (int, error)
	submit func(Command) (handle, error)
	close  func() error
}

// cmdLayers dials every layer at addr. The reconnecting ones count on
// ctr and give up after three retries of a millisecond's backoff.
func cmdLayers(t *testing.T, addr string, ctr *metrics.Resilience, reconnectingOnly bool) []cmdLayer {
	t.Helper()
	opt := Options{DialTimeout: time.Second, RequestTimeout: 2 * time.Second}
	pol := RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	rc, err := NewReconnector(addr, opt, pol, ctr)
	if err != nil {
		t.Fatal(err)
	}
	grp, err := NewQPGroup(addr, 2, opt, pol, ctr)
	if err != nil {
		t.Fatal(err)
	}
	ls := []cmdLayer{
		{"reconnector", rc.Do, func(c Command) (handle, error) { return rc.Submit(c) }, rc.Close},
		{"qpgroup", grp.Do, func(c Command) (handle, error) { return grp.Submit(c) }, grp.Close},
	}
	if !reconnectingOnly {
		in, err := ConnectOptions(addr, opt)
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, cmdLayer{"initiator", in.Do, func(c Command) (handle, error) { return in.Submit(c) }, in.Close})
	}
	for _, l := range ls {
		t.Cleanup(func() { l.close() }) //nolint:errcheck
	}
	return ls
}

// TestCommandThroughEveryLayer runs every opcode as a Command through
// Initiator, Reconnector and QPGroup against one target, synchronously
// (Do) and pipelined (Submit, Wait): the bytes land, Wait reports the
// payload bytes the command moved, and nothing is retried.
func TestCommandThroughEveryLayer(t *testing.T) {
	data := patterned(1 << 20)
	tgt, addr := startVecTarget(t, data)
	read := func(p []byte, off int64) {
		if _, err := tgt.Store().ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	ctr := &metrics.Resilience{}
	for _, l := range cmdLayers(t, addr, ctr, false) {
		for _, cc := range cmdCases() {
			t.Run(l.name+"/"+cc.name, func(t *testing.T) {
				c, wantN, landed := cc.build(data)
				n, err := l.do(c)
				if err != nil || n != wantN {
					t.Fatalf("Do: n %d, err %v, want %d", n, err, wantN)
				}
				if err := landed(read); err != nil {
					t.Fatalf("Do: %v", err)
				}
				c, wantN, landed = cc.build(data)
				pd, err := l.submit(c)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				if n, err = pd.Wait(); err != nil || n != wantN {
					t.Fatalf("Wait: n %d, err %v, want %d", n, err, wantN)
				}
				if err := landed(read); err != nil {
					t.Fatalf("Submit: %v", err)
				}
			})
		}
	}
	if r := ctr.Snapshot(); r.Retries != 0 || r.Reconnects != 0 {
		t.Fatalf("a healthy run retried: %+v", r)
	}
}

// TestCommandReplayedFromHandle loses the connection between Submit and
// Wait, for every opcode through both reconnecting layers. The request
// went into a blackholed proxy, so the target never saw it; Wait has
// nothing but the Command its handle stored, and sends that: one retry,
// one reconnect, and the same bytes and n as an undisturbed run.
func TestCommandReplayedFromHandle(t *testing.T) {
	data := patterned(1 << 20)
	tgt, addr := startVecTarget(t, data)
	read := func(p []byte, off int64) {
		if _, err := tgt.Store().ReadAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	for _, cc := range cmdCases() {
		proxy := chaos.NewProxy(addr, chaos.Config{})
		paddr, err := proxy.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() }) //nolint:errcheck
		ctr := &metrics.Resilience{}
		for i, l := range cmdLayers(t, paddr, ctr, true) {
			t.Run(l.name+"/"+cc.name, func(t *testing.T) {
				c, wantN, landed := cc.build(data)
				proxy.SetBlackhole(true)
				pd, err := l.submit(c)
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				if proxy.KillActive() == 0 {
					t.Fatal("no live connection to kill")
				}
				proxy.SetBlackhole(false)
				n, err := pd.Wait()
				if err != nil || n != wantN {
					t.Fatalf("Wait after the kill: n %d, err %v, want %d", n, err, wantN)
				}
				if err := landed(read); err != nil {
					t.Fatal(err)
				}
				if r := ctr.Snapshot(); r.Retries != int64(i+1) || r.Reconnects != int64(i+1) {
					t.Fatalf("retries %d, reconnects %d after %d replayed command(s)", r.Retries, r.Reconnects, i+1)
				}
			})
		}
	}
}

// TestCommandRemoteErrorsNeverRetried: a command the target answers
// with an error status comes back typed from every layer, at once, with
// no retry spent: a read past the device as ErrRemote, and the three
// newer opcodes against an old build as *UnsupportedOpError naming the
// opcode that was sent.
func TestCommandRemoteErrorsNeverRetried(t *testing.T) {
	data := patterned(1 << 20)
	_, addr := startVecTarget(t, data)
	ctr := &metrics.Resilience{}
	for _, l := range cmdLayers(t, addr, ctr, false) {
		_, err := l.do(Command{Op: OpRead, Buf: make([]byte, 512), Off: 1 << 40})
		var ue *UnsupportedOpError
		if !errors.Is(err, ErrRemote) || errors.As(err, &ue) {
			t.Fatalf("%s: read past the device: %v, want plain ErrRemote", l.name, err)
		}
	}
	for _, l := range cmdLayers(t, oldBuild(t, addr), ctr, false) {
		for _, cc := range cmdCases() {
			c, _, _ := cc.build(data)
			newer := c.Op == OpReadSamples || c.Op == OpWriteVec || c.Op == OpFlush
			for _, run := range []func(Command) (int, error){l.do, func(c Command) (int, error) {
				pd, err := l.submit(c)
				if err != nil {
					return 0, err
				}
				return pd.Wait()
			}} {
				_, err := run(c)
				var ue *UnsupportedOpError
				switch {
				case !newer && err != nil:
					t.Fatalf("%s/%s on an old build: %v", l.name, cc.name, err)
				case newer && (!errors.As(err, &ue) || ue.Opcode != c.Op || !errors.Is(err, ErrRemote)):
					t.Fatalf("%s/%s on an old build: %v, want *UnsupportedOpError{%d}", l.name, cc.name, err, c.Op)
				}
			}
		}
	}
	if r := ctr.Snapshot(); r.Retries != 0 || r.Reconnects != 0 {
		t.Fatalf("remote errors were retried: %+v", r)
	}
}
