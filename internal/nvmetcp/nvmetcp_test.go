package nvmetcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"dlfs/internal/blockdev"
	"dlfs/internal/dataset"
)

func startTarget(t *testing.T, capacity int64, depth int) (*Target, string) {
	t.Helper()
	tgt := NewTarget(blockdev.New(capacity), depth)
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tgt.Close() }) //nolint:errcheck
	return tgt, addr
}

func TestHandshake(t *testing.T) {
	_, addr := startTarget(t, 8<<20, 16)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	if in.Depth() != 16 {
		t.Fatalf("depth = %d", in.Depth())
	}
	if in.Capacity() != 8<<20 {
		t.Fatalf("capacity = %d", in.Capacity())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tgt, addr := startTarget(t, 8<<20, 16)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	data := []byte("remote nvme over tcp")
	if _, err := in.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := in.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	cmds, by := tgt.Served()
	if cmds != 2 || by != int64(2*len(data)) {
		t.Fatalf("served %d cmds %d bytes", cmds, by)
	}
}

func TestOutOfRange(t *testing.T) {
	_, addr := startTarget(t, 4096, 4)
	in, _ := Connect(addr)
	defer in.Close() //nolint:errcheck
	if _, err := in.WriteAt(make([]byte, 100), 4090); !errors.Is(err, ErrRemote) {
		t.Fatalf("write past end: %v", err)
	}
	if _, err := in.ReadAt(make([]byte, 100), 4090); !errors.Is(err, ErrRemote) {
		t.Fatalf("read past end: %v", err)
	}
	// Connection still usable after an error completion.
	if _, err := in.ReadAt(make([]byte, 16), 0); err != nil {
		t.Fatalf("read after error: %v", err)
	}
}

func TestAsyncOutOfOrderCompletion(t *testing.T) {
	_, addr := startTarget(t, 8<<20, 32)
	in, _ := Connect(addr)
	defer in.Close() //nolint:errcheck
	// Seed data.
	for i := 0; i < 8; i++ {
		buf := bytes.Repeat([]byte{byte(i + 1)}, 1024)
		if _, err := in.WriteAt(buf, int64(i)*1024); err != nil {
			t.Fatal(err)
		}
	}
	pendings := make([]*Pending, 8)
	bufs := make([][]byte, 8)
	for i := range pendings {
		bufs[i] = make([]byte, 1024)
		pd, err := in.ReadAsync(bufs[i], int64(i)*1024)
		if err != nil {
			t.Fatal(err)
		}
		pendings[i] = pd
	}
	for i, pd := range pendings {
		if _, err := pd.Wait(); err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
		for _, b := range bufs[i] {
			if b != byte(i+1) {
				t.Fatalf("pending %d corrupt", i)
			}
		}
	}
}

func TestQueueDepthEnforced(t *testing.T) {
	_, addr := startTarget(t, 8<<20, 2)
	in, _ := Connect(addr)
	defer in.Close() //nolint:errcheck
	p1, err := in.ReadAsync(make([]byte, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := in.ReadAsync(make([]byte, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Third submit may race with completions; retry logic belongs to the
	// caller, so just assert the error type when it fires.
	if _, err := in.ReadAsync(make([]byte, 8), 0); err != nil && !errors.Is(err, ErrDepthLimit) {
		t.Fatalf("unexpected error: %v", err)
	}
	p1.Wait() //nolint:errcheck
	p2.Wait() //nolint:errcheck
}

func TestConcurrentClients(t *testing.T) {
	tgt, addr := startTarget(t, 64<<20, 32)
	ds := dataset.Generate(dataset.Config{Label: "tcp", Seed: 8, NumSamples: 32, Dist: dataset.Fixed(3000)})
	// Upload through one connection.
	up, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, ds.Len())
	var off int64
	for i := 0; i < ds.Len(); i++ {
		offs[i] = off
		if _, err := up.WriteAt(ds.Content(i), off); err != nil {
			t.Fatal(err)
		}
		off += 3000
	}
	up.Close() //nolint:errcheck

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, err := Connect(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer in.Close() //nolint:errcheck
			buf := make([]byte, 3000)
			for i := 0; i < ds.Len(); i++ {
				if _, err := in.ReadAt(buf, offs[i]); err != nil {
					t.Error(err)
					return
				}
				if dataset.ChecksumBytes(buf) != ds.Checksum(i) {
					t.Errorf("sample %d corrupt over TCP", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	cmds, _ := tgt.Served()
	if cmds < int64(32+4*32) {
		t.Fatalf("served %d commands", cmds)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	_, addr := startTarget(t, 1<<20, 4)
	in, _ := Connect(addr)
	in.Close() //nolint:errcheck
	if _, err := in.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := in.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestTargetCloseUnblocksClients(t *testing.T) {
	tgt, addr := startTarget(t, 1<<20, 4)
	in, _ := Connect(addr)
	defer in.Close() //nolint:errcheck
	tgt.Close()      //nolint:errcheck
	if _, err := in.ReadAt(make([]byte, 8), 0); err == nil {
		t.Fatal("read succeeded after target close")
	}
}

// TestReadZeroLengthRejected is the regression test for the strict
// command-length check: a read asking for zero bytes (or a length that
// truncates negative) is a protocol violation and must complete with a
// bad-op status, not an empty success or a huge allocation.
func TestReadZeroLengthRejected(t *testing.T) {
	_, addr := startTarget(t, 1<<20, 8)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	for _, want := range []uint32{0, 0x80000000, 0xFFFFFFFF} {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], want)
		pc := getPending()
		id, err := in.submit(&capsule{opcode: opRead, offset: 0, payload: lenBuf[:]}, pc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.await(pc, id); !errors.Is(err, ErrRemote) {
			t.Fatalf("read length %#x: %v, want ErrRemote", want, err)
		}
	}
	// The connection survives the rejected commands.
	if _, err := in.ReadAt(make([]byte, 8), 0); err != nil {
		t.Fatalf("read after rejected lengths: %v", err)
	}
}

// TestTargetServesReadsZeroCopy guards the acceptance bound that the
// default engine performs zero payload memcpys on the read hot path:
// every read byte must be accounted zero-copy, none staged.
func TestTargetServesReadsZeroCopy(t *testing.T) {
	data := patterned(256 << 10)
	tgt, addr := startVecTarget(t, data)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	buf := make([]byte, 4096)
	for i := 0; i < 16; i++ {
		off := int64(i * 4096)
		if _, err := in.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data[off:off+4096]) {
			t.Fatalf("zero-copy read %d corrupt", i)
		}
	}
	segs := []Seg{
		{Dst: make([]byte, 1000), Off: 100},
		{Dst: make([]byte, 9000), Off: 128 << 10},
	}
	if _, err := in.ReadVec(segs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(segs[0].Dst, data[100:1100]) || !bytes.Equal(segs[1].Dst, data[128<<10:128<<10+9000]) {
		t.Fatal("zero-copy vec read corrupt")
	}

	// crc32c sample reads are served from the same views: the records
	// are never copied, only their trailers are computed.
	smp := []SampleSeg{
		{Dst: make([]byte, 3000+4), Off: 50, N: 3000},
		{Dst: make([]byte, 70000+4), Off: 100 << 10, N: 70000},
	}
	for i := 0; i < 4; i++ {
		if _, err := in.ReadSamples(TransformCRC32C, smp, nil); err != nil {
			t.Fatal(err)
		}
		for _, sg := range smp {
			if body, ok := VerifyCRC32C(sg.Dst); !ok || !bytes.Equal(body, data[sg.Off:sg.Off+int64(sg.N)]) {
				t.Fatalf("zero-copy crc32c sample at %d corrupt", sg.Off)
			}
		}
	}

	st := tgt.ServerStats()
	wantBytes := int64(16*4096 + 1000 + 9000 + 4*(3000+70000))
	if st.StagedBytes != 0 {
		t.Fatalf("read hot path staged %d bytes, want 0", st.StagedBytes)
	}
	if st.ZeroCopyBytes != wantBytes {
		t.Fatalf("zero-copy bytes = %d, want %d", st.ZeroCopyBytes, wantBytes)
	}
	if st.Flushes == 0 || st.FlushedCmds < 17 {
		t.Fatalf("flusher stats writevs=%d cmds=%d", st.Flushes, st.FlushedCmds)
	}
}

// TestRestageAfterWriteEpochChange exercises the seqlock fallback
// directly: a completion whose view was captured before an overwrite
// must be re-staged into a consistent copy of the *current* contents.
func TestRestageAfterWriteEpochChange(t *testing.T) {
	store := blockdev.New(2 << 20)
	if _, err := store.WriteAt(bytes.Repeat([]byte{0xAA}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	tgt := NewTargetConfig(store, Config{})
	defer tgt.Close() //nolint:errcheck

	comp := tgt.execute(&capsule{opcode: opRead, payload: []byte{0, 16, 0, 0}}) // 4096 bytes at 0
	if comp.view == nil {
		t.Fatal("execute did not build a view")
	}
	if _, err := store.WriteAt(bytes.Repeat([]byte{0xBB}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if store.WriteEpoch() == comp.epoch {
		t.Fatal("write did not advance the epoch")
	}
	tgt.restage(&comp)
	if comp.view != nil || len(comp.staged) != 4096 {
		t.Fatalf("restage left view=%v staged=%d", comp.view != nil, len(comp.staged))
	}
	for i, b := range comp.staged {
		if b != 0xBB {
			t.Fatalf("restaged byte %d = %#x, want current contents", i, b)
		}
	}
	if tgt.ServerStats().Restaged != 1 {
		t.Fatalf("restaged counter = %d", tgt.ServerStats().Restaged)
	}

	// A crc32c sample completion: its trailers were computed over the
	// old bodies, so re-staging must rebuild records and trailers alike
	// from the current contents. The second record crosses an extent
	// boundary to cover a multi-piece view.
	if _, err := store.WriteAt(bytes.Repeat([]byte{0xCC}, 8192), extentBoundary-4096); err != nil {
		t.Fatal(err)
	}
	segs := []vecSeg{{off: 100, n: 1000}, {off: extentBoundary - 3000, n: 5000}}
	req := make([]byte, sampleHdrSize+len(segs)*sampleDescSize)
	encodeSampleList(req, TransformCRC32C, segs)
	comp = tgt.execute(&capsule{opcode: opReadSamples, payload: req})
	if comp.view == nil || comp.aux == nil || tgt.ServerStats().StagedBytes != 0 {
		t.Fatal("crc32c sample read was not served from views")
	}
	wantN := 4*len(segs) + 1000 + 5000 + 4*len(segs)
	var flat []byte
	for _, v := range comp.view {
		flat = append(flat, v...)
	}
	checkSampleResponse(t, "viewed", flat, wantN, segs, []byte{0xBB, 0xCC})
	if _, err := store.WriteAt(bytes.Repeat([]byte{0xDD}, 8192), extentBoundary-4096); err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteAt(bytes.Repeat([]byte{0xEE}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	tgt.restage(&comp)
	if comp.view != nil {
		t.Fatal("restage left the crc32c view in place")
	}
	checkSampleResponse(t, "restaged", comp.staged, wantN, segs, []byte{0xEE, 0xDD})
	if tgt.ServerStats().Restaged != 2 {
		t.Fatalf("restaged counter = %d", tgt.ServerStats().Restaged)
	}
	recycleCompletion(&comp)
}

// extentBoundary is where the store's first extent ends (blockdev
// allocates in 1 MiB extents), for records that must straddle two.
const extentBoundary = 1 << 20

// checkSampleResponse parses an opReadSamples crc32c response payload —
// length block, then each record followed by its trailer — and checks
// that record i is segs[i].n bytes of fill[i] and that its trailer
// verifies.
func checkSampleResponse(t *testing.T, what string, resp []byte, wantN int, segs []vecSeg, fill []byte) {
	t.Helper()
	if len(resp) != wantN {
		t.Fatalf("%s response is %d bytes, want %d", what, len(resp), wantN)
	}
	pos := 4 * len(segs)
	for i, s := range segs {
		outn := int(binary.LittleEndian.Uint32(resp[4*i:]))
		if outn != int(s.n)+4 {
			t.Fatalf("%s record %d: length block says %d, want %d", what, i, outn, s.n+4)
		}
		body, ok := VerifyCRC32C(resp[pos : pos+outn])
		if !ok {
			t.Fatalf("%s record %d: trailer does not verify", what, i)
		}
		if !bytes.Equal(body, bytes.Repeat(fill[i:i+1], int(s.n))) {
			t.Fatalf("%s record %d: body is not all %#x", what, i, fill[i])
		}
		pos += outn
	}
}

func TestCapsuleRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := &capsule{cmdID: 42, opcode: opWrite, status: statusOK, offset: 1 << 33, payload: []byte("hi")}
	if err := writeCapsule(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := readCapsule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.cmdID != 42 || got.opcode != opWrite || got.offset != 1<<33 || string(got.payload) != "hi" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestBadMagicRejected(t *testing.T) {
	bad := make([]byte, capsuleHeaderSize)
	if _, err := readCapsule(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
}

// TestReadAtAllocsPerCommand pins what one wire command allocates,
// initiator and target together (both run in this process, and
// AllocsPerRun counts every goroutine): a depth-1 ReadAt loop through a
// Reconnector, deadline armed, as live's ReadSample misses issue it.
func TestReadAtAllocsPerCommand(t *testing.T) {
	_, addr := startTarget(t, 8<<20, 16)
	r, err := NewReconnector(addr, Options{}, RetryPolicy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck
	buf := make([]byte, 4096)
	if _, err := r.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := r.ReadAt(buf, 0); err != nil {
			t.Error(err)
		}
	})
	t.Logf("%.2f allocs per command", allocs)
	// 2 today (the target's view list and the scheduler's ring), 4 under
	// the race detector, which makes sync.Pool drop a quarter of all Puts.
	if allocs > 5 {
		t.Fatalf("depth-1 ReadAt allocates %.2f objects per command, want <= 5", allocs)
	}
}
