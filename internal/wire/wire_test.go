package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

var (
	errMalformed = errors.New("test: malformed")
	errTooLarge  = errors.New("test: too large")
	testProto    = Proto{Magic: 0x54455354, Malformed: errMalformed, TooLarge: errTooLarge,
		Limit: func(op byte) uint32 {
			if op == 2 {
				return 1 << 30
			}
			return 64
		}}
)

// header frames a bare header claiming n payload bytes.
func header(magic uint32, op byte, tag, n uint32) []byte {
	var h Header
	binary.LittleEndian.PutUint32(h[0:4], magic)
	h[4] = op
	binary.LittleEndian.PutUint32(h[5:9], tag)
	binary.LittleEndian.PutUint32(h[9:13], n)
	return h[:]
}

// TestRoundTrip: what Write emits Read parses back, with the payload in
// the caller's buffer when it supplies one, and an empty payload asks
// for none.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var hdr Header
	in := []*Frame{{Op: 1, Tag: 7, Payload: []byte("control")}, {Op: 2, Tag: 1 << 31, Payload: bytes.Repeat([]byte{9}, 3<<20)}, {Op: 3, Tag: 0}}
	for _, f := range in {
		if err := testProto.Write(&buf, &hdr, f); err != nil {
			t.Fatal(err)
		}
	}
	allocs := 0
	alloc := func(n int) []byte { allocs++; return make([]byte, n) }
	for i, want := range in {
		a := alloc
		if i == 1 {
			a = nil // the large one the chunked way
		}
		got, err := testProto.Read(&buf, &hdr, a)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.Tag != want.Tag || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got op %d tag %d and %d bytes", i, got.Op, got.Tag, len(got.Payload))
		}
	}
	if allocs != 1 {
		t.Fatalf("allocator called %d times, want once (frame 0; frame 2 is empty)", allocs)
	}
	if _, err := testProto.Read(&buf, &hdr, nil); err != io.EOF {
		t.Fatalf("read past the last frame: %v", err)
	}
}

// TestCapsBeforeAlloc: a length past the opcode's cap is a typed error
// matching both of the protocol's sentinels before the allocator is
// asked for anything; an in-cap claim with nothing behind it costs a
// chunk, not the claim; a wrong magic is malformed.
func TestCapsBeforeAlloc(t *testing.T) {
	var hdr Header
	alloc := func(int) []byte { t.Fatal("allocated for a rejected frame"); return nil }
	_, err := testProto.Read(bytes.NewReader(header(testProto.Magic, 1, 0, 65)), &hdr, alloc)
	var fse *FrameSizeError
	if !errors.As(err, &fse) || fse.Op != 1 || fse.Size != 65 || fse.Limit != 64 {
		t.Fatalf("got %v, want *FrameSizeError{1, 65, 64}", err)
	}
	if !errors.Is(err, errTooLarge) || !errors.Is(err, errMalformed) {
		t.Fatalf("%v does not match both sentinels", err)
	}
	if _, err := testProto.Read(bytes.NewReader(header(0xDEADBEEF, 1, 0, 0)), &hdr, alloc); !errors.Is(err, errMalformed) {
		t.Fatalf("bad magic: %v", err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = testProto.Read(bytes.NewReader(header(testProto.Magic, 2, 0, 1<<30)), &hdr, nil)
	runtime.ReadMemStats(&after)
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("1 GiB claimed, none sent: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("allocated %d bytes for an empty 1 GiB claim", grew)
	}
}
