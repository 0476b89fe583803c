package nvmetcp

// End-to-end race battery for the write path: gathered writes racing
// zero-copy reads across the wire, writers racing connection teardown,
// and the flush barrier racing the completion flusher's drain. Writers
// stamp whole stripes with one generation byte so any mixed-generation
// read is a torn extent. Run under -race.

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// TestRaceGatheredWriteVsVecReads drives a two-extent generation stripe
// through opWriteVec while a second connection reads the same extents
// through the zero-copy vectored read path. The server applies the
// stripe under one epoch bump and the flusher pins/restages views, so
// every read must observe a single generation across both extents.
// Beside it, crc32c sample readers on connections of their own have the
// worker checksum those views outside the store lock: every record's
// trailer must verify against the body it arrived with, and a stripe is
// still one generation. The battery runs twice: once as is, and once
// with the target's checksum memo already holding both records'
// trailers for the seed generation, which the writer makes stale.
func TestRaceGatheredWriteVsVecReads(t *testing.T) {
	t.Run("cold", func(t *testing.T) { raceGatheredWriteVsVecReads(t, false) })
	t.Run("memo-warm", func(t *testing.T) { raceGatheredWriteVsVecReads(t, true) })
}

func raceGatheredWriteVsVecReads(t *testing.T, warm bool) {
	tgt, addr := startTarget(t, 32<<20, 32)
	wr, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close() //nolint:errcheck
	rd, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close() //nolint:errcheck

	const segLen = 128 << 10
	offs := []int64{0, 1 << 20} // distinct store extents
	seed := bytes.Repeat([]byte{1}, 2*segLen)
	if _, err := wr.WriteVec([]WSeg{{Src: seed[:segLen], Off: offs[0]}, {Src: seed[segLen:], Off: offs[1]}}); err != nil {
		t.Fatal(err)
	}
	if warm {
		recs := []vecSeg{{off: uint64(offs[0]), n: segLen}, {off: uint64(offs[1]), n: segLen}}
		readCRC(t, rd, recs...)
		readCRC(t, rd, recs...)
		if st := tgt.ServerStats(); st.ChecksumMemoHits != 2 || st.ChecksumMemoMisses != 2 {
			t.Fatalf("warming the memo: %d hits %d misses, want 2 and 2", st.ChecksumMemoHits, st.ChecksumMemoMisses)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := byte(2)
		buf := make([]byte, 2*segLen)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := range buf {
				buf[i] = gen
			}
			segs := []WSeg{{Src: buf[:segLen], Off: offs[0]}, {Src: buf[segLen:], Off: offs[1]}}
			if _, err := wr.WriteVec(segs); err != nil {
				t.Error(err)
				return
			}
			gen++
			if gen == 0 {
				gen = 2
			}
		}
	}()

	for r := 0; r < 2; r++ {
		sr, err := Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer sr.Close() //nolint:errcheck
		wg.Add(1)
		go func() {
			defer wg.Done()
			segs := []SampleSeg{
				{Dst: make([]byte, segLen+4), Off: offs[0], N: segLen},
				{Dst: make([]byte, segLen+4), Off: offs[1], N: segLen},
			}
			for iter := 0; iter < 300; iter++ {
				if _, err := sr.ReadSamples(TransformCRC32C, segs, nil); err != nil {
					t.Error(err)
					return
				}
				first := segs[0].Dst[0]
				for ri, sg := range segs {
					body, ok := VerifyCRC32C(sg.Dst)
					if !ok {
						t.Errorf("record %d: trailer does not verify (iter %d)", ri, iter)
						return
					}
					if !bytes.Equal(body, bytes.Repeat([]byte{first}, segLen)) {
						t.Errorf("torn crc32c stripe: record %d is not all generation %d (iter %d)", ri, first, iter)
						return
					}
				}
			}
		}()
	}

	got := make([]byte, 2*segLen)
	for iter := 0; iter < 400; iter++ {
		segs := []Seg{{Dst: got[:segLen], Off: offs[0]}, {Dst: got[segLen:], Off: offs[1]}}
		pd, err := rd.ReadVecAsync(segs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pd.Wait(); err != nil {
			t.Fatal(err)
		}
		first := got[0]
		for i, b := range got {
			if b != first {
				t.Fatalf("torn stripe at byte %d: generation %d vs %d (iter %d)", i, b, first, iter)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRaceWriterVsClose slams pipelined writes into a connection that is
// concurrently torn down. Every outcome is acceptable except a hang,
// panic, or race-detector report; pendings must resolve.
func TestRaceWriterVsClose(t *testing.T) {
	for round := 0; round < 10; round++ {
		_, addr := startTarget(t, 8<<20, 16)
		in, err := Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := bytes.Repeat([]byte{7}, 8192)
			var pds []*Pending
			for i := 0; i < 64; i++ {
				pd, werr := in.Submit(Command{Op: OpWrite, Buf: buf, Off: int64(i) * 8192})
				if werr != nil {
					break // closed or depth-limited mid-teardown: fine
				}
				pds = append(pds, pd)
			}
			for _, pd := range pds {
				pd.Wait() //nolint:errcheck // errors expected after Close
			}
		}()
		in.Close() //nolint:errcheck
		wg.Wait()
	}
}

// TestRaceWritersVsFlushBarrier runs several writer goroutines against a
// shared connection while another goroutine spins durability barriers.
// The flush handoff must never wedge the worker pool, every barrier must
// complete, and the final state must hold each writer's last stripe.
func TestRaceWritersVsFlushBarrier(t *testing.T) {
	_, addr := startTarget(t, 32<<20, 64)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	const writers = 4
	const iters = 100
	var writerWG, flusherWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			region := int64(w) * (1 << 20)
			buf := make([]byte, 16<<10)
			for i := 0; i < iters; i++ {
				for j := range buf {
					buf[j] = byte(w + 1)
				}
				if _, werr := in.WriteAt(buf, region); werr != nil {
					t.Error(werr)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	flusherWG.Add(1)
	go func() {
		defer flusherWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ferr := in.Flush(); ferr != nil {
				t.Error(ferr)
				return
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	flusherWG.Wait()

	if err := in.Flush(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16<<10)
	for w := 0; w < writers; w++ {
		if _, err := in.ReadAt(got, int64(w)*(1<<20)); err != nil {
			t.Fatal(err)
		}
		for i, b := range got {
			if b != byte(w+1) {
				t.Fatalf("writer %d region byte %d = %d after barrier", w, i, b)
			}
		}
	}
}

// TestRaceWritersVsTargetDrain tears the target down while gathered
// writes are in flight: the SCQ flusher drains, the flush-barrier
// goroutines unwind, and the client surfaces errors instead of hanging.
func TestRaceWritersVsTargetDrain(t *testing.T) {
	for round := 0; round < 5; round++ {
		tgt, addr := startTarget(t, 16<<20, 32)
		in, err := Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := bytes.Repeat([]byte{9}, 64<<10)
			for i := 0; ; i++ {
				segs := []WSeg{
					{Src: buf[:32<<10], Off: int64(i%8) * (1 << 20)},
					{Src: buf[32<<10:], Off: int64(i%8)*(1<<20) + (512 << 10)},
				}
				if _, werr := in.WriteVec(segs); werr != nil {
					return // target gone: expected
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				if ferr := in.Flush(); ferr != nil {
					return
				}
			}
		}()
		tgt.Close() //nolint:errcheck
		wg.Wait()
		if err := in.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Logf("close after target drain: %v", err)
		}
	}
}
