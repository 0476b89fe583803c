package coord

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dlfs/internal/wire"
)

// fuzzFrame builds a wire frame for the corpus.
func fuzzFrame(op byte, rank uint32, payload []byte) []byte {
	var buf bytes.Buffer
	proto.Write(&buf, new(wire.Header), &frame{Op: op, Tag: rank, Payload: payload}) //nolint:errcheck
	return buf.Bytes()
}

// FuzzCoordFrame drives the frame codec (internal/wire, as DLCO) with
// arbitrary bytes: it must never
// panic and never allocate anywhere near a corrupt length prefix's
// claim. The seed corpus covers the interesting shapes — valid control
// and blob frames, an oversized control frame, a huge claimed gather
// payload with no body behind it, and a bad magic.
func FuzzCoordFrame(f *testing.F) {
	f.Add(fuzzFrame(opBarrier, 0, packName("dlfs/mount/start", nil)))
	f.Add(fuzzFrame(opGather, 2, packName("dlfs/mount/dir", []byte("blob"))))
	f.Add(fuzzFrame(opJoin, 1, []byte{3, 0, 0, 0}))
	f.Add(fuzzFrame(opAbort, 0, abortPayload(noRank, "reason")))

	// Corrupt length prefix on a control frame: claims far past the cap.
	corrupt := fuzzFrame(opBarrier, 0, nil)
	binary.LittleEndian.PutUint32(corrupt[9:13], 0xFFFFFFFF)
	f.Add(corrupt)

	// In-cap but bogus gather length with no payload behind it.
	hugeGather := fuzzFrame(opGather, 0, nil)
	binary.LittleEndian.PutUint32(hugeGather[9:13], maxPayload)
	f.Add(hugeGather)

	// Bad magic.
	bad := fuzzFrame(opBarrier, 0, nil)
	binary.LittleEndian.PutUint32(bad[0:4], 0xDEADBEEF)
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := proto.Read(bytes.NewReader(data), new(wire.Header), nil)
		if err != nil {
			return
		}
		// A frame that parsed must round-trip byte-identically.
		var buf bytes.Buffer
		if err := proto.Write(&buf, new(wire.Header), fr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, data[:len(got)]) {
			t.Fatalf("round trip mismatch: %x != %x", got, data[:len(got)])
		}
	})
}
