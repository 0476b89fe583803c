package peercache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"dlfs/internal/wire"
)

// fuzzFrame builds a wire frame for the corpus.
func fuzzFrame(op byte, seq uint32, payload []byte) []byte {
	var buf bytes.Buffer
	proto.Write(&buf, new(wire.Header), &wire.Frame{Op: op, Tag: seq, Payload: payload}) //nolint:errcheck
	return buf.Bytes()
}

// FuzzPeerFrame drives the frame codec (internal/wire, as DLPC) with
// arbitrary bytes, as coord's FuzzCoordFrame does as DLCO: it must never
// panic, reject oversized claims typed before allocating them, and
// round-trip every frame that parses. The seed corpus covers the
// interesting shapes — a valid get, a data answer, a miss, a corrupt
// length prefix far past the cap, an in-cap bogus data length with no
// body behind it, a truncated header, and a bad magic.
func FuzzPeerFrame(f *testing.F) {
	get := make([]byte, getPayloadSize)
	binary.LittleEndian.PutUint64(get, 42)
	f.Add(fuzzFrame(opGet, 1, get))
	f.Add(fuzzFrame(opData, 1, bytes.Repeat([]byte{0xAB}, 1024)))
	f.Add(fuzzFrame(opMiss, 2, nil))
	f.Add(fuzzFrame(opErr, 3, []byte("expected get")))

	// Corrupt length prefix on a control frame: claims far past the cap.
	corrupt := fuzzFrame(opGet, 0, get)
	binary.LittleEndian.PutUint32(corrupt[9:13], 0xFFFFFFFF)
	f.Add(corrupt)

	// In-cap but bogus data length with no payload behind it.
	hugeData := fuzzFrame(opData, 0, nil)
	binary.LittleEndian.PutUint32(hugeData[9:13], maxDataPayload)
	f.Add(hugeData)

	// Truncated header and bad magic.
	f.Add(fuzzFrame(opGet, 1, get)[:7])
	bad := fuzzFrame(opMiss, 0, nil)
	binary.LittleEndian.PutUint32(bad[0:4], 0xDEADBEEF)
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := proto.Read(bytes.NewReader(data), new(wire.Header), nil)
		if err != nil {
			// Errors must be the typed protocol/size classes or plain
			// short-read transport errors — never a panic, and an
			// oversized claim must carry its opcode and limit.
			var fse *FrameSizeError
			if errors.As(err, &fse) {
				if fse.Size <= fse.Limit {
					t.Fatalf("FrameSizeError with in-cap size: %+v", fse)
				}
				if !errors.Is(err, ErrFrameTooLarge) || !errors.Is(err, ErrProtocol) {
					t.Fatalf("FrameSizeError not matching its sentinels: %v", err)
				}
			}
			return
		}
		if uint32(len(fr.Payload)) > payloadLimit(fr.Op) {
			t.Fatalf("parsed frame exceeds its opcode cap: op=%d len=%d", fr.Op, len(fr.Payload))
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
