package nvmetcp

import (
	"bytes"
	"testing"
)

// readCRC reads the records under crc32c on in and returns their
// bodies, failing the test on a trailer that does not verify.
func readCRC(t *testing.T, in *Initiator, recs ...vecSeg) [][]byte {
	t.Helper()
	segs := make([]SampleSeg, len(recs))
	for i, r := range recs {
		segs[i] = SampleSeg{Dst: make([]byte, r.n+4), Off: int64(r.off), N: int(r.n)}
	}
	if _, err := in.ReadSamples(TransformCRC32C, segs, nil); err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, len(recs))
	for i, sg := range segs {
		body, ok := VerifyCRC32C(sg.Dst)
		if !ok {
			t.Fatalf("record %d (off %d, n %d): trailer does not verify", i, recs[i].off, recs[i].n)
		}
		bodies[i] = body
	}
	return bodies
}

// TestChecksumMemoInvalidatedByWrite: a memoised trailer is used only
// while the store's write epoch is the one it was computed under, on
// both write paths: the copying opWrite and the gathered write whose
// segment the store adopts as the extent's backing array.
func TestChecksumMemoInvalidatedByWrite(t *testing.T) {
	rec := vecSeg{off: 0, n: extentBoundary} // one whole extent, so the gathered write is adopted
	gens := [][]byte{patterned(int(rec.n)), bytes.Repeat([]byte{0xB1}, int(rec.n)), bytes.Repeat([]byte{0xC2}, int(rec.n))}
	tgt, addr := startVecTarget(t, gens[0])
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	misses := int64(0)
	read := func(step string, want []byte, wantMiss int64) {
		t.Helper()
		if got := readCRC(t, in, rec)[0]; !bytes.Equal(got, want) {
			t.Fatalf("%s: response does not carry the store's current bytes", step)
		}
		st := tgt.ServerStats()
		if st.ChecksumMemoMisses-misses != wantMiss {
			t.Fatalf("%s: %d memo misses, want %d", step, st.ChecksumMemoMisses-misses, wantMiss)
		}
		misses = st.ChecksumMemoMisses
	}
	read("first read", gens[0], 1)
	read("second read", gens[0], 0)
	if hits := tgt.ServerStats().ChecksumMemoHits; hits != 1 {
		t.Fatalf("second read: %d memo hits, want 1", hits)
	}
	if _, err := in.WriteAt(gens[1], int64(rec.off)); err != nil {
		t.Fatal(err)
	}
	read("after WriteAt", gens[1], 1)
	if _, err := in.WriteVec([]WSeg{{Src: gens[2], Off: int64(rec.off)}}); err != nil {
		t.Fatal(err)
	}
	if tgt.ServerStats().AdoptedExtents != 1 {
		t.Fatal("the gathered write was not adopted")
	}
	read("after adopted WriteVec", gens[2], 1)
}

// TestChecksumMemoCollision: two records that share a slot each get
// their own trailer however their reads interleave, and evict each other
// without growing anything.
func TestChecksumMemoCollision(t *testing.T) {
	data := patterned(1 << 20)
	tgt, addr := startVecTarget(t, data)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	a := vecSeg{off: 0, n: 64}
	b := vecSeg{n: 96}
	for b.off = 1; crcSlotIndex(b) != crcSlotIndex(a); b.off++ {
		if int(b.off+uint64(b.n)) == len(data) {
			t.Fatal("no record in the store shares a slot with the first")
		}
	}
	body := func(r vecSeg) []byte { return data[r.off : r.off+uint64(r.n)] }
	for round := 0; round < 3; round++ {
		for _, r := range []vecSeg{a, b} {
			if !bytes.Equal(readCRC(t, in, r)[0], body(r)) {
				t.Fatalf("round %d: record at %d corrupt", round, r.off)
			}
		}
	}
	got := readCRC(t, in, a, b, a) // and inside one command
	if !bytes.Equal(got[0], body(a)) || !bytes.Equal(got[1], body(b)) || !bytes.Equal(got[2], body(a)) {
		t.Fatal("one command over both records: corrupt")
	}
	if st := tgt.ServerStats(); st.ChecksumMemoHits != 0 || st.ChecksumMemoMisses != 9 {
		t.Fatalf("records on one slot: %d hits %d misses, want 0 and 9", st.ChecksumMemoHits, st.ChecksumMemoMisses)
	}
}

// TestChecksumMemoBounded: more distinct (off, n) pairs than the memo has
// slots, overlapping and down to one byte, leave its storage the size it
// was allocated at, and every response verifies, first time and again.
func TestChecksumMemoBounded(t *testing.T) {
	data := patterned(256 << 10)
	tgt, addr := startVecTarget(t, data)
	in, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck

	const pairs = crcMemoSlots + crcMemoSlots/4
	recs := make([]vecSeg, pairs)
	for i := range recs {
		recs[i] = vecSeg{off: uint64(i), n: uint32(1 + i%64)}
	}
	for pass := 0; pass < 2; pass++ {
		for lo := 0; lo < pairs; lo += MaxSampleDescs {
			cmd := recs[lo:min(lo+MaxSampleDescs, pairs)]
			for i, got := range readCRC(t, in, cmd...) {
				if r := cmd[i]; !bytes.Equal(got, data[r.off:r.off+uint64(r.n)]) {
					t.Fatalf("pass %d: record at %d corrupt", pass, r.off)
				}
			}
		}
		if n, c := len(tgt.crcMemo.slots), cap(tgt.crcMemo.slots); n != crcMemoSlots || c != crcMemoSlots {
			t.Fatalf("pass %d: memo holds %d slots (cap %d) after %d distinct records, want %d", pass, n, c, pairs, crcMemoSlots)
		}
	}
	st := tgt.ServerStats()
	if st.ChecksumMemoHits+st.ChecksumMemoMisses != 2*pairs {
		t.Fatalf("%d hits + %d misses over %d reads", st.ChecksumMemoHits, st.ChecksumMemoMisses, 2*pairs)
	}
	if st.ChecksumMemoHits == 0 {
		t.Fatal("no record of the second pass was still memoised")
	}
}
