package nvmetcp

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"

	"dlfs/internal/blockdev"
	"dlfs/internal/chaos"
)

// oldBuild puts a proxy in front of the target at addr that hides
// opReadSamples, opWriteVec and opFlush from it, and returns the address
// at which it therefore looks like a build from before they existed.
func oldBuild(t *testing.T, addr string) string {
	t.Helper()
	old := chaos.NewProxy(addr, chaos.Config{})
	old.MaskOps(opReadSamples, opWriteVec, opFlush)
	oaddr, err := old.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { old.Close() }) //nolint:errcheck
	return oaddr
}

// sampleListPayload frames a raw opReadSamples request for rejection
// tests that need malformed counts/lengths encodeSampleList refuses to
// produce.
func sampleListPayload(xform byte, descs [][2]uint64) []byte {
	p := make([]byte, sampleHdrSize+len(descs)*sampleDescSize)
	p[0] = xform
	binary.LittleEndian.PutUint32(p[1:5], uint32(len(descs)))
	at := sampleHdrSize
	for _, d := range descs {
		binary.LittleEndian.PutUint64(p[at:at+8], d[0])
		binary.LittleEndian.PutUint32(p[at+8:at+12], uint32(d[1]))
		at += sampleDescSize
	}
	return p
}

func TestSampleListCodecRoundTrip(t *testing.T) {
	segs := []vecSeg{{off: 0, n: 512}, {off: 1 << 30, n: 1}, {off: 4096, n: 40 << 10}}
	dst := make([]byte, sampleHdrSize+len(segs)*sampleDescSize)
	n := encodeSampleList(dst, TransformCRC32C, segs)
	if n != len(dst) {
		t.Fatalf("encoded %d bytes, want %d", n, len(dst))
	}
	xform, got, total, err := decodeSampleList(dst[:n])
	if err != nil {
		t.Fatal(err)
	}
	if xform != TransformCRC32C {
		t.Fatalf("transform %d", xform)
	}
	if len(got) != len(segs) {
		t.Fatalf("decoded %d descs", len(got))
	}
	for i := range segs {
		if got[i] != segs[i] {
			t.Fatalf("desc %d: %+v != %+v", i, got[i], segs[i])
		}
	}
	if want := 512 + 1 + 40<<10; total != want {
		t.Fatalf("total %d, want %d", total, want)
	}
}

// TestSampleListDecodeRejects is the bounds table: every cap is
// enforced before the descriptor slice is allocated, zero and negative
// record lengths are refused, and the transform byte is validated.
func TestSampleListDecodeRejects(t *testing.T) {
	overCount := sampleListPayload(TransformNone, make([][2]uint64, 3))
	binary.LittleEndian.PutUint32(overCount[1:5], MaxSampleDescs+1)
	hugeCount := sampleListPayload(TransformNone, [][2]uint64{{0, 64}})
	binary.LittleEndian.PutUint32(hugeCount[1:5], 0xFFFFFFFF)
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short-header", []byte{0, 1, 0}},
		{"bad-transform", sampleListPayload(numTransforms, [][2]uint64{{0, 64}})},
		{"zero-count", sampleListPayload(TransformNone, nil)},
		{"count-over-cap", overCount},
		{"count-wraps-alloc", hugeCount},
		{"count-payload-mismatch", sampleListPayload(TransformNone, [][2]uint64{{0, 64}})[:sampleHdrSize+6]},
		{"zero-length-record", sampleListPayload(TransformNone, [][2]uint64{{0, 64}, {128, 0}})},
		{"negative-length-record", sampleListPayload(TransformNone, [][2]uint64{{0, 0x80000000}})},
		{"total-over-payload-cap", sampleListPayload(TransformNone, [][2]uint64{
			{0, uint64(maxPayload/2 + 1)}, {0, uint64(maxPayload/2 + 1)},
		})},
	}
	for _, tc := range cases {
		if _, _, _, err := decodeSampleList(tc.payload); err == nil {
			t.Errorf("%s: decode accepted a malformed frame", tc.name)
		}
	}
}

// TestReadSamplesTransforms drives every fixed-size transform end to
// end over the real TCP engine and checks both the payload and the
// target's assembly accounting.
func TestReadSamplesTransforms(t *testing.T) {
	data := patterned(256 << 10)
	tgt, addr := startVecTarget(t, data)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	records := []struct {
		off int64
		n   int
	}{{100, 1000}, {64 << 10, 40 << 10}, {200 << 10, 1}}
	mkSegs := func(xform byte) []SampleSeg {
		segs := make([]SampleSeg, len(records))
		for i, r := range records {
			segs[i] = SampleSeg{Dst: make([]byte, TransformOutLen(xform, r.n)), Off: r.off, N: r.n}
		}
		return segs
	}

	t.Run("none", func(t *testing.T) {
		segs := mkSegs(TransformNone)
		lens := make([]int, len(segs))
		n, err := in.ReadSamples(TransformNone, segs, lens)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i, r := range records {
			if !bytes.Equal(segs[i].Dst, data[r.off:r.off+int64(r.n)]) {
				t.Fatalf("record %d corrupt", i)
			}
			if lens[i] != r.n {
				t.Fatalf("record %d landed %d bytes, want %d", i, lens[i], r.n)
			}
			want += r.n
		}
		if n != want {
			t.Fatalf("landed %d bytes, want %d", n, want)
		}
	})
	t.Run("crc32c", func(t *testing.T) {
		segs := mkSegs(TransformCRC32C)
		if _, err := in.ReadSamples(TransformCRC32C, segs, nil); err != nil {
			t.Fatal(err)
		}
		for i, r := range records {
			body, ok := VerifyCRC32C(segs[i].Dst)
			if !ok {
				t.Fatalf("record %d failed crc verification", i)
			}
			if !bytes.Equal(body, data[r.off:r.off+int64(r.n)]) {
				t.Fatalf("record %d corrupt after strip", i)
			}
		}
	})
	t.Run("stride", func(t *testing.T) {
		segs := mkSegs(TransformStride)
		if _, err := in.ReadSamples(TransformStride, segs, nil); err != nil {
			t.Fatal(err)
		}
		for i, r := range records {
			src := data[r.off : r.off+int64(r.n)]
			for j := range segs[i].Dst {
				if segs[i].Dst[j] != src[j*strideStep] {
					t.Fatalf("record %d byte %d not the strided source", i, j)
				}
			}
		}
	})

	st := tgt.ServerStats()
	if st.SampleCmds != 3 || st.AssembledSamples != int64(3*len(records)) {
		t.Fatalf("assembly accounting cmds=%d samples=%d", st.SampleCmds, st.AssembledSamples)
	}
	if st.TransformNanos == 0 {
		t.Fatal("transform time not observed")
	}
}

// TestReadSamplesFlate stores DEFLATE-compressed records and reads them
// back decompressed — the target pays the inflation, the client
// receives training-ready bytes with per-record lengths from the
// response length block.
func TestReadSamplesFlate(t *testing.T) {
	_, addr := startTarget(t, 1<<20, 16)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	plains := [][]byte{
		bytes.Repeat([]byte("deep learning sample "), 100),
		bytes.Repeat([]byte{0x42}, 4096),
	}
	var offs []int64
	var lens32 []int
	off := int64(0)
	for _, p := range plains {
		var zb bytes.Buffer
		zw, _ := flate.NewWriter(&zb, flate.BestSpeed)
		zw.Write(p) //nolint:errcheck
		zw.Close()  //nolint:errcheck
		if _, err := in.WriteAt(zb.Bytes(), off); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
		lens32 = append(lens32, zb.Len())
		off += int64(zb.Len() + 512)
	}
	segs := make([]SampleSeg, len(plains))
	for i := range plains {
		segs[i] = SampleSeg{Dst: make([]byte, len(plains[i])+64), Off: offs[i], N: lens32[i]}
	}
	lens := make([]int, len(segs))
	if _, err := in.ReadSamples(TransformFlate, segs, lens); err != nil {
		t.Fatal(err)
	}
	for i, p := range plains {
		if lens[i] != len(p) {
			t.Fatalf("record %d inflated to %d bytes, want %d", i, lens[i], len(p))
		}
		if !bytes.Equal(segs[i].Dst[:lens[i]], p) {
			t.Fatalf("record %d corrupt after inflate", i)
		}
	}
}

// TestReadSamplesStatusMapping checks the status taxonomy: out-of-range
// descriptors and invalid transforms are remote command errors on a
// connection that stays usable, and only statusBadOp maps to the typed
// downgrade error.
func TestReadSamplesStatusMapping(t *testing.T) {
	_, addr := startTarget(t, 4096, 8)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	var ue *UnsupportedOpError
	if _, err := in.ReadSamples(TransformNone, []SampleSeg{{Dst: make([]byte, 64), Off: 8000, N: 64}}, nil); !errors.Is(err, ErrRemote) || errors.As(err, &ue) {
		t.Fatalf("out-of-range sample: %v", err)
	}
	// The connection survives the error completion.
	if _, err := in.ReadSamples(TransformNone, []SampleSeg{{Dst: make([]byte, 64), Off: 0, N: 64}}, nil); err != nil {
		t.Fatalf("read after error: %v", err)
	}
}

// TestLegacyTargetDowngrade pairs a new client with an old-opcode
// target (a current one behind a proxy that hides the newer opcodes from
// it): opReadSamples must complete with the typed
// *UnsupportedOpError — non-retryable, so the Reconnector returns it
// immediately — while the legacy opcodes keep working on the same
// connection. This is the rolling-upgrade downgrade contract.
func TestLegacyTargetDowngrade(t *testing.T) {
	store := blockdev.New(1 << 20)
	data := patterned(8 << 10)
	if _, err := store.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	tgt := NewTargetConfig(store, Config{Depth: 8})
	taddr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tgt.Close() }) //nolint:errcheck
	addr := oldBuild(t, taddr)

	segs := []SampleSeg{{Dst: make([]byte, 512), Off: 0, N: 512}}
	t.Run("initiator", func(t *testing.T) {
		in, err := Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close() //nolint:errcheck
		_, err = in.ReadSamples(TransformNone, segs, nil)
		var ue *UnsupportedOpError
		if !errors.As(err, &ue) || ue.Opcode != opReadSamples {
			t.Fatalf("want *UnsupportedOpError{opReadSamples}, got %v", err)
		}
		if IsRetryable(err) {
			t.Fatal("downgrade signal must not be retryable")
		}
		if !strings.Contains(err.Error(), "unsupported") {
			t.Fatalf("unhelpful error text: %v", err)
		}
		// Old opcodes still work on the very same connection.
		buf := make([]byte, 512)
		if _, err := in.ReadAt(buf, 0); err != nil || !bytes.Equal(buf, data[:512]) {
			t.Fatalf("legacy read after downgrade: %v", err)
		}
		if _, err := in.ReadVec([]Seg{{Dst: buf, Off: 1024}}); err != nil {
			t.Fatalf("legacy vec read after downgrade: %v", err)
		}
	})
	t.Run("reconnector", func(t *testing.T) {
		rc, err := NewReconnector(addr, Options{}, RetryPolicy{MaxRetries: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close() //nolint:errcheck
		_, err = rc.ReadSamples(TransformNone, segs, nil)
		var ue *UnsupportedOpError
		if !errors.As(err, &ue) {
			t.Fatalf("want *UnsupportedOpError through reconnector, got %v", err)
		}
		if got := rc.Counters().Retries.Load(); got != 0 {
			t.Fatalf("downgrade burned %d retries", got)
		}
	})
	t.Run("async-wait-fallback", func(t *testing.T) {
		rc, err := NewReconnector(addr, Options{}, RetryPolicy{MaxRetries: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close() //nolint:errcheck
		rp, err := rc.ReadSamplesAsync(TransformNone, segs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ue *UnsupportedOpError
		if _, err := rp.Wait(); !errors.As(err, &ue) {
			t.Fatalf("async downgrade: %v", err)
		}
	})
}

// TestReadSamplesConcurrentWrites races sample assembly against whole-
// record overwrites. The crc32c transform runs on the staged path: each
// record is snapshotted under the store's read lock before the checksum
// is computed, so every delivered record must verify and be internally
// consistent — one fill value, never a torn mix. TransformNone reads
// ride along to drive the zero-copy restage path under the race
// detector (its flush tolerates in-writev tears by design, so only
// completion is asserted there).
func TestReadSamplesConcurrentWrites(t *testing.T) {
	const recLen = 4096
	const nRec = 8
	store := blockdev.New(1 << 20)
	for i := 0; i < nRec; i++ {
		if _, err := store.WriteAt(bytes.Repeat([]byte{1}, recLen), int64(i*recLen)); err != nil {
			t.Fatal(err)
		}
	}
	tgt := NewTargetConfig(store, Config{Depth: 32})
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tgt.Close() }) //nolint:errcheck
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w, err := Connect(addr)
		if err != nil {
			return
		}
		defer w.Close() //nolint:errcheck
		fill := byte(2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < nRec; i++ {
				if _, err := w.WriteAt(bytes.Repeat([]byte{fill}, recLen), int64(i*recLen)); err != nil {
					return
				}
			}
			fill++
			if fill == 0 {
				fill = 1
			}
		}
	}()
	crcSegs := make([]SampleSeg, nRec)
	rawSegs := make([]SampleSeg, nRec)
	for i := range crcSegs {
		off := int64(i * recLen)
		crcSegs[i] = SampleSeg{Dst: make([]byte, recLen+4), Off: off, N: recLen}
		rawSegs[i] = SampleSeg{Dst: make([]byte, recLen), Off: off, N: recLen}
	}
	for round := 0; round < 50; round++ {
		if _, err := in.ReadSamples(TransformCRC32C, crcSegs, nil); err != nil {
			t.Fatal(err)
		}
		for i, s := range crcSegs {
			body, ok := VerifyCRC32C(s.Dst)
			if !ok {
				t.Fatalf("round %d record %d failed crc under concurrent writes", round, i)
			}
			first := body[0]
			for j, b := range body {
				if b != first {
					t.Fatalf("round %d record %d torn at byte %d: %#x vs %#x", round, i, j, b, first)
				}
			}
		}
		if _, err := in.ReadSamples(TransformNone, rawSegs, nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
