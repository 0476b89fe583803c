package nvmetcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"dlfs/internal/blockdev"
)

// BenchmarkReadAt measures the single-command round trip. With pooled
// pending commands, reusable capsule headers, and zero-copy receive into
// the caller's buffer, the steady-state client side allocates nothing
// per read beyond goroutine scheduling noise (see -benchmem).
func BenchmarkReadAt(b *testing.B) {
	data := patterned(1 << 20)
	_, addr := startVecTarget(b, data)
	in, err := Connect(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.ReadAt(buf, int64(i%8)*(64<<10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTargetServe measures server-side serving throughput of the
// RPQ/SCQ worker-pool engine across worker counts and client queue
// depths. The last numbers of the goroutine-per-command engine and of
// the staged-payload mode it replaced are in CHANGES.md (PR 18).
func BenchmarkTargetServe(b *testing.B) {
	engines := []struct {
		name string
		cfg  Config
	}{
		{"pool_w1_zerocopy", Config{Workers: 1}},
		{"pool_w4_zerocopy", Config{Workers: 4}},
		{"pool_w8_zerocopy", Config{Workers: 8}},
	}
	for _, eng := range engines {
		for _, depth := range []int{16, 64, 256} {
			cfg := eng.cfg
			cfg.Depth = depth
			b.Run(fmt.Sprintf("%s/depth%d", eng.name, depth), func(b *testing.B) {
				benchTargetServe(b, cfg, depth)
			})
		}
	}
}

// benchTargetServe drives one target with `depth` total outstanding
// sample-sized reads spread over several queue pairs. The driver speaks
// the wire format directly — batched submissions, buffered receive that
// discards payloads — so the server engine, not client-side machinery,
// is the measured bottleneck.
func benchTargetServe(b *testing.B, cfg Config, depth int) {
	const readSize = 4 << 10
	nconns := 8
	if depth < nconns {
		nconns = depth
	}
	perDepth := depth / nconns
	data := patterned(16 << 20)
	store := blockdev.New(int64(len(data)))
	if _, err := store.WriteAt(data, 0); err != nil {
		b.Fatal(err)
	}
	tgt := NewTargetConfig(store, cfg)
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer tgt.Close() //nolint:errcheck

	conns := make([]net.Conn, nconns)
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close() //nolint:errcheck
		if err := writeCapsule(c, &capsule{opcode: opHello}); err != nil {
			b.Fatal(err)
		}
		if _, err := readCapsule(c); err != nil {
			b.Fatal(err)
		}
		conns[i] = c
	}

	b.SetBytes(readSize)
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var done atomic.Bool
	var wg, rwg sync.WaitGroup
	for _, conn := range conns {
		tokens := make(chan struct{}, perDepth)
		rwg.Add(1)
		go func(conn net.Conn) { // receiver: count completions, discard payloads
			defer rwg.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			hdr := make([]byte, capsuleHeaderSize)
			for {
				if _, err := io.ReadFull(br, hdr); err != nil {
					if !done.Load() {
						b.Error(err)
					}
					return
				}
				if hdr[13] != statusOK {
					b.Errorf("status %d", hdr[13])
					return
				}
				if _, err := br.Discard(int(binary.LittleEndian.Uint32(hdr[22:26]))); err != nil {
					b.Error(err)
					return
				}
				<-tokens
			}
		}(conn)
		wg.Add(1)
		go func(conn net.Conn) { // submitter: pipeline reads up to perDepth deep
			defer wg.Done()
			bw := bufio.NewWriterSize(conn, 32<<10)
			hdr := make([]byte, capsuleHeaderSize)
			lenb := make([]byte, 4)
			binary.LittleEndian.PutUint32(lenb, readSize)
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					break
				}
				select {
				case tokens <- struct{}{}:
				default: // window full: push the batch, then wait
					if err := bw.Flush(); err != nil {
						b.Error(err)
						return
					}
					tokens <- struct{}{}
				}
				off := (i * readSize) % (int64(len(data)) - readSize)
				encodeHdr(hdr, uint64(i), opRead, 0, uint64(off), 4)
				bw.Write(hdr)  //nolint:errcheck
				bw.Write(lenb) //nolint:errcheck
			}
			if err := bw.Flush(); err != nil {
				b.Error(err)
				return
			}
			for j := 0; j < perDepth; j++ { // drain: wait for every completion
				tokens <- struct{}{}
			}
		}(conn)
	}
	wg.Wait()
	b.StopTimer()
	done.Store(true)
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	rwg.Wait()
}

// BenchmarkLoopbackSplit measures the floor under this package: what
// plain loopback TCP moves, and what it costs in CPU, with no protocol
// at all, in the four combinations of two things a transfer through an
// initiator and a target cannot avoid and the benchmark's reference burst
// (bench/calibrate.go) does not have. same: one goroutine writes a block
// and reads it back, as the burst does; split: a writer and a reader on
// goroutines of their own, as a submitter and a receive loop are. hot:
// one 256 KiB block sent and landed over and over, so both copies run in
// cache; cold: the writer walks a 256 MiB source and the reader a 64 MiB
// destination, as a dataset and an arena are walked. One stream per
// core. cold/split is what a rung of the ladder can hope for; hot/same
// is what the ratios in bench/ are taken against (DESIGN.md §10,
// "transport floor").
func BenchmarkLoopbackSplit(b *testing.B) {
	const block = 256 << 10
	for _, tc := range []struct {
		name     string
		src, dst int
		split    bool
	}{
		{"hot/same", block, block, false},
		{"hot/split", block, block, true},
		{"cold/same", 256 << 20, 64 << 20, false},
		{"cold/split", 256 << 20, 64 << 20, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close() //nolint:errcheck
			streams := runtime.GOMAXPROCS(0)
			type pair struct{ w, r net.Conn }
			pairs := make([]pair, streams)
			for i := range pairs {
				w, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close() //nolint:errcheck
				r, err := ln.Accept()
				if err != nil {
					b.Fatal(err)
				}
				defer r.Close() //nolint:errcheck
				// Pinned as the reference burst pins them, so autotuning
				// cannot move them between runs.
				if err := errors.Join(w.(*net.TCPConn).SetWriteBuffer(1<<20), r.(*net.TCPConn).SetReadBuffer(1<<20)); err != nil {
					b.Fatal(err)
				}
				pairs[i] = pair{w, r}
			}
			src, dst := make([]byte, tc.src), make([]byte, tc.dst)
			for i := range src {
				src[i] = byte(i)
			}
			// Stream i sends its own 1/streams of the blocks, b.N in all.
			send := func(p pair, i int) error {
				for k := i; k < b.N; k += streams {
					off := k * block % len(src)
					if _, err := p.w.Write(src[off : off+block]); err != nil {
						return err
					}
					if !tc.split {
						doff := k * block % len(dst)
						if _, err := io.ReadFull(p.r, dst[doff:doff+block]); err != nil {
							return err
						}
					}
				}
				return nil
			}
			recv := func(p pair, i int) error {
				for k := i; k < b.N; k += streams {
					doff := k * block % len(dst)
					if _, err := io.ReadFull(p.r, dst[doff:doff+block]); err != nil {
						return err
					}
				}
				return nil
			}
			b.SetBytes(block)
			var wg sync.WaitGroup
			var failed atomic.Bool
			run := func(f func(pair, int) error, p pair, i int) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := f(p, i); err != nil {
						failed.Store(true)
						p.w.Close() //nolint:errcheck // unblocks the other end
						p.r.Close() //nolint:errcheck
					}
				}()
			}
			cpu0 := processCPU()
			b.ResetTimer()
			for i, p := range pairs {
				run(send, p, i)
				if tc.split {
					run(recv, p, i)
				}
			}
			wg.Wait()
			b.StopTimer()
			if failed.Load() {
				b.Fatal("a loopback stream failed")
			}
			gib := float64(b.N) * block / (1 << 30)
			b.ReportMetric((processCPU()-cpu0)/gib, "cpu-s/GiB")
		})
	}
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// BenchmarkReadVec measures a coalesced 8-segment command against the
// same total byte count as eight BenchmarkReadAt calls would move.
func BenchmarkReadVec(b *testing.B) {
	data := patterned(1 << 20)
	_, addr := startVecTarget(b, data)
	in, err := Connect(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	const segN = 8
	bufs := make([]byte, segN*(8<<10))
	segs := make([]Seg, segN)
	for i := range segs {
		segs[i] = Seg{Dst: bufs[i*(8<<10) : (i+1)*(8<<10)], Off: int64(i * (100 << 10))}
	}
	b.SetBytes(int64(len(bufs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.ReadVec(segs); err != nil {
			b.Fatal(err)
		}
	}
}
