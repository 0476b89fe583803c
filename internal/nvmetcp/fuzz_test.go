package nvmetcp

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dlfs/internal/blockdev"
)

// corruptSeeds builds the chaos-style corruption corpus: valid frames
// with a byte flipped in the magic, an oversized length field, a
// truncated payload, and a frame cut mid-header — the shapes a faulty
// fabric actually produces (see internal/chaos).
func corruptSeeds() [][]byte {
	var good bytes.Buffer
	writeCapsule(&good, &capsule{cmdID: 9, opcode: opWrite, offset: 512, payload: []byte("payload bytes")}) //nolint:errcheck

	flipped := append([]byte(nil), good.Bytes()...)
	flipped[0] ^= 0x80 // corrupt the magic

	oversized := append([]byte(nil), good.Bytes()...)
	binary.LittleEndian.PutUint32(oversized[22:26], maxPayload+1)

	truncated := append([]byte(nil), good.Bytes()...)
	truncated = truncated[:len(truncated)-4] // payload cut mid-capsule

	midHeader := append([]byte(nil), good.Bytes()[:capsuleHeaderSize/2]...)

	hugeLen := append([]byte(nil), good.Bytes()[:capsuleHeaderSize]...)
	binary.LittleEndian.PutUint32(hugeLen[22:26], 0xFFFFFFFF)

	return [][]byte{flipped, oversized, truncated, midHeader, hugeLen}
}

// FuzzReadCapsule throws arbitrary bytes at the frame parser: it must
// never panic and never allocate beyond the payload bound.
func FuzzReadCapsule(f *testing.F) {
	var seed bytes.Buffer
	writeCapsule(&seed, &capsule{cmdID: 7, opcode: opRead, offset: 4096, payload: []byte{16, 0, 0, 0}}) //nolint:errcheck
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, capsuleHeaderSize))
	for _, s := range corruptSeeds() {
		f.Add(s)
	}
	// Command-level length pathologies (regression corpus for readLen):
	// a read asking for zero bytes and one whose length truncates
	// negative through a 32-bit int.
	var zeroRead, negRead bytes.Buffer
	writeCapsule(&zeroRead, &capsule{cmdID: 11, opcode: opRead, offset: 4096, payload: []byte{0, 0, 0, 0}})   //nolint:errcheck
	writeCapsule(&negRead, &capsule{cmdID: 12, opcode: opRead, offset: 4096, payload: []byte{0, 0, 0, 0x80}}) //nolint:errcheck
	f.Add(zeroRead.Bytes())
	f.Add(negRead.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := readCapsule(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully parsed capsule must round-trip.
		var buf bytes.Buffer
		if err := writeCapsule(&buf, c); err != nil {
			t.Fatal(err)
		}
		again, err := readCapsule(&buf)
		if err != nil || again.cmdID != c.cmdID || !bytes.Equal(again.payload, c.payload) {
			t.Fatalf("round trip diverged: %v", err)
		}
	})
}

// FuzzSampleListFrame throws arbitrary bytes at the opReadSamples
// request decoder: it must never panic, never allocate past the
// descriptor cap, and anything it accepts must satisfy every invariant
// it promises (valid transform, bounded count, positive lengths,
// response under the payload cap) and re-encode byte-identically.
func FuzzSampleListFrame(f *testing.F) {
	good := make([]byte, sampleHdrSize+2*sampleDescSize)
	encodeSampleList(good, TransformCRC32C, []vecSeg{{off: 0, n: 4096}, {off: 1 << 20, n: 40 << 10}})
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{TransformNone, 1, 0, 0, 0})          // count promises a desc the frame lacks
	f.Add(append([]byte(nil), good[:len(good)-3]...)) // truncated mid-descriptor

	overCount := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(overCount[1:5], 0xFFFFFFFF) // count would wrap the alloc
	f.Add(overCount)

	zeroLen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(zeroLen[sampleHdrSize+8:], 0) // zero-length record
	f.Add(zeroLen)

	negLen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(negLen[sampleHdrSize+8:], 0x80000000) // int32-negative record
	f.Add(negLen)

	badXform := append([]byte(nil), good...)
	badXform[0] = numTransforms
	f.Add(badXform)

	huge := make([]byte, sampleHdrSize+2*sampleDescSize)
	encodeSampleList(huge, TransformNone, []vecSeg{
		{off: 0, n: uint32(maxPayload/2 + 1)}, {off: 0, n: uint32(maxPayload/2 + 1)},
	}) // total past the payload cap
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		xform, segs, total, err := decodeSampleList(data)
		if err != nil {
			return
		}
		if !TransformValid(xform) {
			t.Fatalf("accepted transform %d", xform)
		}
		if len(segs) == 0 || len(segs) > MaxSampleDescs {
			t.Fatalf("accepted %d descriptors", len(segs))
		}
		sum := 0
		for i, s := range segs {
			if s.n == 0 || int32(s.n) < 0 {
				t.Fatalf("accepted record %d length %d", i, int32(s.n))
			}
			sum += int(s.n)
		}
		if sum != total || total+4*len(segs) > maxPayload {
			t.Fatalf("total %d (sum %d) escapes the payload cap", total, sum)
		}
		// Accepted frames must re-encode byte-identically.
		again := make([]byte, sampleHdrSize+len(segs)*sampleDescSize)
		if n := encodeSampleList(again, xform, segs); !bytes.Equal(again[:n], data) {
			t.Fatal("re-encode diverged from accepted frame")
		}
	})
}

// FuzzTenantFrame throws arbitrary request frames at the target's
// tenant-ingestion path — the classifier and the cost estimator that
// run on every command before any queue or quota state is touched.
// Invariants: both are cap-enforced before allocation and never panic
// on malformed payloads; classifyTenant accepts exactly the ids the
// target provisions (and nothing carrying the reserved high bits); and
// cmdCost always lands in [1, maxPayload] so a corrupt descriptor block
// cannot mint a zero- or negative-cost command that slips past the DRR
// accounting, nor an unbounded one that stalls its tenant forever.
func FuzzTenantFrame(f *testing.F) {
	// A legacy frame (tenant slot zero), every boundary id, the reserved
	// high bits, and tenant ids riding each opcode's payload shape.
	mk := func(tenant byte, opcode byte, payload []byte) []byte {
		var b bytes.Buffer
		writeCapsuleHdr(&b, &capsule{cmdID: 21, opcode: opcode, status: tenant, offset: 0, payload: payload}, make([]byte, capsuleHeaderSize)) //nolint:errcheck
		return b.Bytes()
	}
	f.Add(mk(0, opRead, []byte{0, 16, 0, 0}))
	f.Add(mk(1, opWrite, []byte("tenant one write")))
	f.Add(mk(MaxTenantID, opRead, []byte{0, 16, 0, 0}))
	f.Add(mk(MaxTenantID+1, opRead, []byte{0, 16, 0, 0}))
	f.Add(mk(0x80, opRead, []byte{0, 16, 0, 0})) // reserved high bit set
	f.Add(mk(0xFF, opWrite, nil))
	vec := make([]byte, 4+2*vecSegSize)
	binary.LittleEndian.PutUint32(vec[0:4], 2)
	binary.LittleEndian.PutUint32(vec[4+8:], 4096)
	binary.LittleEndian.PutUint32(vec[4+vecSegSize+8:], 1<<20)
	f.Add(mk(3, opReadVec, vec))
	smp := make([]byte, sampleHdrSize+sampleDescSize)
	encodeSampleList(smp, TransformNone, []vecSeg{{off: 0, n: 40 << 10}})
	f.Add(mk(5, opReadSamples, smp))
	// Malformed descriptor blocks: count promising more than the frame
	// holds, and a count that would overflow the cost loop.
	badVec := append([]byte(nil), vec...)
	binary.LittleEndian.PutUint32(badVec[0:4], 0xFFFFFFFF)
	f.Add(mk(2, opReadVec, badVec))
	f.Add(mk(2, opReadVec, vec[:7]))
	for _, s := range corruptSeeds() {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readCapsule(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, maxTenants := range []int{1, 8, MaxTenantID + 1} {
			st := classifyTenant(req.status, maxTenants)
			inRange := req.status <= MaxTenantID && int(req.status) < maxTenants
			if inRange && st != statusOK {
				t.Fatalf("tenant %d rejected by a %d-tenant target", req.status, maxTenants)
			}
			if !inRange && st != statusTenant {
				t.Fatalf("tenant %d accepted by a %d-tenant target (status %d)", req.status, maxTenants, st)
			}
		}
		// Reserved high bits are never silently truncated into another
		// tenant's id space.
		if req.status > MaxTenantID && classifyTenant(req.status, MaxTenantID+1) != statusTenant {
			t.Fatalf("reserved-bit tenant %#x accepted", req.status)
		}
		cost := cmdCost(req)
		if cost < 1 || cost > maxPayload {
			t.Fatalf("cmdCost(%d, %d payload bytes) = %d escapes [1, maxPayload]", req.opcode, len(req.payload), cost)
		}
	})
}

// FuzzWriteFrame throws arbitrary opWriteVec request frames at the
// target's gathered-write ingest (readRequest, then execute) — the
// caps-before-alloc gate between the wire and the store's write path.
// Invariants: ingest never panics and never allocates descriptors past
// maxVecSegs; anything it accepts has a positive in-cap count, nonzero
// int32-positive extent lengths inside the device, one buffer per
// extent of exactly its length, and re-encodes byte-identically; what it
// accepts lands, everything else (an empty frame included) completes
// with an error status; and reserved tenant bits on the frame are still
// rejected before any write-side state is touched.
func FuzzWriteFrame(f *testing.F) {
	mk := func(tenant byte, payload []byte) []byte {
		var b bytes.Buffer
		writeCapsuleHdr(&b, &capsule{cmdID: 33, opcode: opWriteVec, status: tenant, offset: 0, payload: payload}, make([]byte, capsuleHeaderSize)) //nolint:errcheck
		return b.Bytes()
	}
	vecPayload := func(segs []vecSeg, data []byte) []byte {
		p := make([]byte, writeVecHdrSize+len(segs)*vecSegSize+len(data))
		n := encodeWriteVec(p, segs)
		copy(p[n:], data)
		return p
	}

	good := vecPayload([]vecSeg{{off: 0, n: 512}, {off: 1 << 20, n: 512}}, make([]byte, 1024))
	f.Add(mk(0, good))
	f.Add(mk(MaxTenantID, good))
	f.Add(mk(0x80, good)) // reserved tenant bit set
	f.Add(mk(0xFF, good))

	zeroLen := vecPayload([]vecSeg{{off: 0, n: 0}}, nil) // zero-length extent
	f.Add(mk(1, zeroLen))
	negLen := vecPayload([]vecSeg{{off: 0, n: 0x80000000}}, nil) // int32-negative extent
	f.Add(mk(1, negLen))

	overCount := append([]byte(nil), good...) // count overflows the descriptor cap
	binary.LittleEndian.PutUint32(overCount[0:4], 0xFFFFFFFF)
	f.Add(mk(1, overCount))
	zeroCount := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(zeroCount[0:4], 0)
	f.Add(mk(1, zeroCount))

	short := vecPayload([]vecSeg{{off: 0, n: 1024}}, make([]byte, 512)) // descriptors promise more data than shipped
	f.Add(mk(1, short))
	long := vecPayload([]vecSeg{{off: 0, n: 512}}, make([]byte, 1024)) // trailing bytes no descriptor claims
	f.Add(mk(1, long))
	f.Add(mk(1, good[:writeVecHdrSize+vecSegSize/2])) // truncated mid-descriptor
	f.Add(mk(1, nil))
	for _, s := range corruptSeeds() {
		f.Add(s)
	}

	const capacity = 4 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		// What a connection's reader and a worker run on every frame, on
		// a target with no goroutines and an empty store: one exec leaves
		// nothing behind for the next.
		tgt := &Target{store: blockdev.New(capacity), cfg: Config{}.withDefaults()}
		req := new(capsule)
		if err := tgt.readRequest(bytes.NewReader(data), make([]byte, capsuleHeaderSize), req); err != nil {
			return
		}
		defer releaseRequest(req)
		if req.status > MaxTenantID && classifyTenant(req.status, MaxTenantID+1) != statusTenant {
			t.Fatalf("reserved-bit tenant %#x reached the write path", req.status)
		}
		if req.opcode != opWriteVec {
			return
		}
		accepted := req.vecStatus == 0 && req.vecs != nil
		if accepted {
			segs := req.vsegs
			if len(segs) == 0 || len(segs) > maxVecSegs || len(req.vecs) != len(segs) {
				t.Fatalf("accepted %d descriptors, %d buffers", len(segs), len(req.vecs))
			}
			sum := 0
			for i, s := range segs {
				if s.n == 0 || int32(s.n) < 0 || len(req.vecs[i]) != int(s.n) {
					t.Fatalf("accepted extent %d length %d in a %d-byte buffer", i, int32(s.n), len(req.vecs[i]))
				}
				if int64(s.off) < 0 || int64(s.off)+int64(s.n) > capacity {
					t.Fatalf("accepted extent %d at %d+%d outside the device", i, s.off, s.n)
				}
				sum += int(s.n)
			}
			payload := data[capsuleHeaderSize:]
			descEnd := writeVecHdrSize + len(segs)*vecSegSize
			if want := int(binary.LittleEndian.Uint32(data[22:26])) - descEnd; sum != want {
				t.Fatalf("descriptor sum %d != %d gathered bytes", sum, want)
			}
			// Accepted frames must re-encode byte-identically.
			again := make([]byte, descEnd)
			if n := encodeWriteVec(again, segs); !bytes.Equal(again[:n], payload[:n]) {
				t.Fatal("re-encode diverged from accepted frame")
			}
		}
		comp := tgt.execute(req)
		status := comp.hdr[13]
		recycleCompletion(&comp)
		if accepted != (status == statusOK) {
			t.Fatalf("ingest accepted=%v but the command completed with status %d", accepted, status)
		}
		if len(data) == capsuleHeaderSize && status != statusBadOp {
			t.Fatalf("empty opWriteVec frame completed with status %d, want statusBadOp", status)
		}
	})
}
