// Package wire is the frame codec under the control plane (coord, "DLCO")
// and the peer sample cache (peercache, "DLPC"). The two protocols frame
// their messages alike (all integers little-endian):
//
//	frame := magic(u32) | op(u8) | tag(u32) | length(u32) | payload
//
// and differ in the magic, in what the tag means (a rank, a request
// sequence number) and in how large a payload each opcode may carry,
// which is what a Proto holds. The rules are the same for both: a length
// prefix is checked against its opcode's cap before anything is
// allocated for it, and a payload no caller supplied a buffer for grows
// a chunk at a time, so a corrupt (but in-cap) prefix on a near-empty
// connection costs one chunk before the short read surfaces, never the
// claimed size.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// HeaderSize is the fixed frame header length.
const HeaderSize = 4 + 1 + 4 + 4

// Header is header scratch. A connection reads and writes serially, so
// each end keeps one per connection and lends it to both directions: a
// header local to Write or Read would escape through the io.Writer or
// io.Reader once per frame.
type Header [HeaderSize]byte

// Frame is one message in either direction.
type Frame struct {
	Op      byte
	Tag     uint32
	Payload []byte
}

// Proto is one protocol over the frame.
type Proto struct {
	Magic uint32
	// Limit returns the largest payload op may carry. It must give an
	// unknown opcode a small cap: the frame is read before a dispatcher
	// can reject it.
	Limit func(op byte) uint32
	// The protocol's own sentinels, so its errors keep matching them:
	// Malformed for a frame that does not parse, TooLarge for a length
	// prefix past its opcode's cap.
	Malformed, TooLarge error
}

// FrameSizeError reports an oversized frame: which opcode, the claimed
// payload length, and the cap it broke. It unwraps to both of its
// protocol's sentinels.
type FrameSizeError struct {
	Op    byte
	Size  uint32
	Limit uint32
	proto *Proto
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("%v: opcode %d payload %d exceeds limit %d", e.proto.TooLarge, e.Op, e.Size, e.Limit)
}

// Unwrap lets errors.Is match the protocol's TooLarge and Malformed.
func (e *FrameSizeError) Unwrap() []error { return []error{e.proto.TooLarge, e.proto.Malformed} }

// Write emits one frame.
func (p *Proto) Write(w io.Writer, hdr *Header, f *Frame) error {
	binary.LittleEndian.PutUint32(hdr[0:4], p.Magic)
	hdr[4] = f.Op
	binary.LittleEndian.PutUint32(hdr[5:9], f.Tag)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// Read parses one frame. alloc, when non-nil, supplies the payload
// buffer (a trusted data path lands payloads in pooled memory that way);
// nil allocates, a chunk at a time.
func (p *Proto) Read(r io.Reader, hdr *Header, alloc func(int) []byte) (*Frame, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != p.Magic {
		return nil, fmt.Errorf("%w: bad magic", p.Malformed)
	}
	f := &Frame{Op: hdr[4], Tag: binary.LittleEndian.Uint32(hdr[5:9])}
	n := binary.LittleEndian.Uint32(hdr[9:13])
	if limit := p.Limit(f.Op); n > limit {
		return nil, &FrameSizeError{Op: f.Op, Size: n, Limit: limit, proto: p}
	}
	const chunk = 1 << 20
	switch {
	case n == 0:
		return f, nil
	case alloc != nil:
		f.Payload = alloc(int(n))
	case n <= chunk:
		f.Payload = make([]byte, n)
	default:
		buf := make([]byte, 0, chunk)
		for len(buf) < int(n) {
			off := len(buf)
			buf = append(buf, make([]byte, min(int(n)-off, chunk))...)
			if _, err := io.ReadFull(r, buf[off:]); err != nil {
				return nil, err
			}
		}
		f.Payload = buf
		return f, nil
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return nil, err
	}
	return f, nil
}
