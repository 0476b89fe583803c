// Package nvmetcp implements a real NVMe-over-Fabrics-style block service
// over TCP, using only the standard library. It is the live-path
// counterpart of the simulated fabric: a Target exports an in-memory block
// store; an Initiator connects, negotiates a queue depth, and submits
// read/write commands that complete asynchronously — the same
// submit/poll contract the SPDK queue pairs expose, with the network in
// between.
//
// Framing (all integers little-endian):
//
//	capsule := magic(u32) | cmdID(u64) | opcode(u8) | status(u8) |
//	           offset(u64) | length(u32) | payload(length bytes)
//
// Requests carry a payload only for writes; responses only for successful
// reads. On request capsules the status slot carries the submitting
// tenant's id (zero = legacy/default tenant); on responses it carries the
// completion status. The connection handshake exchanges a hello capsule
// whose offset field carries the queue depth and whose length carries the
// capacity's low 32 bits (capacity also echoed in cmdID for full 64-bit
// range).
package nvmetcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Magic guards against cross-protocol connections.
const Magic = 0x444C4653 // "DLFS"

// Opcodes.
const (
	opHello byte = iota
	opRead
	opWrite
	opFlushStats
	opReadVec
	opReadSamples
	opWriteVec // gathered multi-extent write (checkpoint ingest)
	opFlush    // durability barrier over this connection's prior writes
)

// Status codes. statusBadOp is reserved for "opcode unknown to this
// target" so a new client can detect an old target and downgrade;
// malformed opReadSamples payloads are statusRange and transform
// failures are statusXform. statusThrottled rejects a command that
// exceeded its tenant's byte/IOPS quota — the response's offset field
// carries a retry-after hint in nanoseconds — and statusTenant rejects
// a command whose tenant id is malformed or not provisioned on the
// target.
const (
	statusOK byte = iota
	statusRange
	statusBadOp
	statusXform
	statusThrottled
	statusTenant
)

// Tenant identity. Request capsules never used their status slot (it
// was always zero on the wire), so that byte now carries the submitting
// tenant's id: zero is the legacy/default tenant, which keeps every
// old initiator working unchanged against a multi-tenant target.
// MaxTenantID bounds the id space; the two bits above it are reserved,
// and a request carrying them is rejected as malformed (statusTenant),
// never silently truncated into another tenant's budget.
const MaxTenantID = 63

// classifyTenant maps a request capsule's tenant slot to an admission
// status for a target provisioned with maxTenants tenants (ids
// 0..maxTenants-1). It allocates nothing: the check runs on every
// ingested command before any queue or quota state is touched.
func classifyTenant(id byte, maxTenants int) byte {
	if id > MaxTenantID || int(id) >= maxTenants {
		return statusTenant
	}
	return statusOK
}

// capsuleHeaderSize is the fixed frame header length.
const capsuleHeaderSize = 4 + 8 + 1 + 1 + 8 + 4

// maxPayload bounds a single capsule's payload (defense against corrupt
// length fields).
const maxPayload = 64 << 20

// capsule is one frame in either direction. A request whose payload is
// scattered across caller buffers sets gather instead of payload: the
// segments, from gather[1] on (gather[0] is the header's place), go to
// the socket in one vectored write, so the client never stages a
// gathered command's data into a contiguous frame.
type capsule struct {
	cmdID   uint64
	opcode  byte
	status  byte
	offset  uint64
	payload []byte
	gather  net.Buffers

	// Server-side gathered ingest (engine path only): an opWriteVec
	// frame's payload is validated descriptor-first and read as one
	// pooled buffer per segment, so vsegs/vecs carry the command instead
	// of payload and aligned segments can be adopted by the store with
	// no copy. vecStatus, when non-zero, is the completion status an
	// ingest-time validation failure deferred to the worker (the frame
	// was drained to keep the stream aligned).
	vsegs     []vecSeg
	vecs      [][]byte
	vecStatus byte
}

// Errors.
var (
	ErrBadMagic   = errors.New("nvmetcp: bad magic")
	ErrTooLarge   = errors.New("nvmetcp: payload exceeds limit")
	ErrShortFrame = errors.New("nvmetcp: short frame")
)

// writeCapsule frames and writes c to w, allocating a scratch header.
// Hot paths hold a reusable header and call writeCapsuleHdr instead.
func writeCapsule(w io.Writer, c *capsule) error {
	return writeCapsuleHdr(w, c, make([]byte, capsuleHeaderSize))
}

// encodeHdr frames a capsule header into hdr (len >= capsuleHeaderSize):
// the payload itself travels separately, so completion paths can encode
// once and gather header + payload segments into a single vectored write.
func encodeHdr(hdr []byte, cmdID uint64, opcode, status byte, offset uint64, payloadLen int) {
	binary.LittleEndian.PutUint32(hdr[0:4], Magic)
	binary.LittleEndian.PutUint64(hdr[4:12], cmdID)
	hdr[12] = opcode
	hdr[13] = status
	binary.LittleEndian.PutUint64(hdr[14:22], offset)
	binary.LittleEndian.PutUint32(hdr[22:26], uint32(payloadLen))
}

// writeCapsuleHdr frames and writes c using the caller's header scratch
// (len >= capsuleHeaderSize). The caller must serialise access to both w
// and hdr.
func writeCapsuleHdr(w io.Writer, c *capsule, hdr []byte) error {
	hdr = hdr[:capsuleHeaderSize]
	if c.gather != nil {
		total := 0
		for _, s := range c.gather[1:] {
			total += len(s)
		}
		encodeHdr(hdr, c.cmdID, c.opcode, c.status, c.offset, total)
		// One writev covering header, descriptor block and every data
		// segment: the payload goes from the caller's buffers to the
		// socket without a staging copy. WriteTo consumes the slice: a
		// capsule is gathered for one send. (It also leaks its receiver,
		// which therefore is a copy of the slice header and not c's own:
		// c is on the submitter's stack.)
		bufs := c.gather
		bufs[0] = hdr
		_, err := bufs.WriteTo(w)
		return err
	}
	encodeHdr(hdr, c.cmdID, c.opcode, c.status, c.offset, len(c.payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(c.payload) > 0 {
		if _, err := w.Write(c.payload); err != nil {
			return err
		}
	}
	return nil
}

// readCapsule reads one frame from r, allocating scratch and payload:
// the handshake path. The target's command loop ingests through
// readRequest, the initiator's receive loop through its own scratch.
func readCapsule(r io.Reader) (*capsule, error) {
	hdr := make([]byte, capsuleHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != Magic {
		return nil, ErrBadMagic
	}
	c := &capsule{
		cmdID:  binary.LittleEndian.Uint64(hdr[4:12]),
		opcode: hdr[12],
		status: hdr[13],
		offset: binary.LittleEndian.Uint64(hdr[14:22]),
	}
	n := binary.LittleEndian.Uint32(hdr[22:26])
	if n > maxPayload {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	if n > 0 {
		c.payload = make([]byte, n)
		if _, err := io.ReadFull(r, c.payload); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Vectored read encoding. An opReadVec request payload is
//
//	count(u32) | count × (offset(u64) | length(u32))
//
// and a successful response carries the segments' data concatenated in
// request order. Segments adjacent on the device are thereby coalesced
// into a single wire command — the chunk-level batching of §III-D2
// applied to the fabric.

// vecSegSize is the wire size of one (offset, length) pair.
const vecSegSize = 12

// maxVecSegs bounds segments per vectored command (defence against
// corrupt counts; generous for any sane coalescing window).
const maxVecSegs = 4096

// vecSeg is one decoded segment of a vectored read request.
type vecSeg struct {
	off uint64
	n   uint32
}

// putDesc encodes one (offset, length) descriptor, the pair all three
// vectored opcodes list, into dst (len >= vecSegSize).
func putDesc(dst []byte, off uint64, n int) {
	binary.LittleEndian.PutUint64(dst[0:8], off)
	binary.LittleEndian.PutUint32(dst[8:12], uint32(n))
}

// decodeVec parses an opReadVec request payload, bounding both segment
// count and total response size.
func decodeVec(payload []byte) ([]vecSeg, int, error) {
	if len(payload) < 4 {
		return nil, 0, ErrShortFrame
	}
	n := int(binary.LittleEndian.Uint32(payload[0:4]))
	if n <= 0 || n > maxVecSegs || len(payload) != 4+n*vecSegSize {
		return nil, 0, fmt.Errorf("%w: vec count %d payload %d", ErrShortFrame, n, len(payload))
	}
	segs := make([]vecSeg, n)
	total := 0
	p := 4
	for i := 0; i < n; i++ {
		segs[i] = vecSeg{
			off: binary.LittleEndian.Uint64(payload[p : p+8]),
			n:   binary.LittleEndian.Uint32(payload[p+8 : p+12]),
		}
		total += int(segs[i].n)
		if total > maxPayload {
			return nil, 0, fmt.Errorf("%w: vec response %d bytes", ErrTooLarge, total)
		}
		p += vecSegSize
	}
	return segs, total, nil
}

// Sample-list encoding (opReadSamples, the near-data assembly opcode).
// A request payload is
//
//	transform(u8) | count(u32) | count × (offset(u64) | length(u32))
//
// where each descriptor names one stored sample record and the
// transform ID selects the per-sample server-side stage (TransformNone,
// TransformCRC32C, ...). A successful response payload is
//
//	count × outLen(u32) | records
//
// — a length block giving every record's post-transform size in request
// order, followed by the transformed records concatenated in the same
// order. The length block lets size-changing transforms
// (flate-decompress, stride-subsample) stay self-describing while the
// target still flushes the whole response as one vectored write: the
// pooled length block plus zero-copy extent views.

// sampleHdrSize is the fixed request prefix before the descriptors.
const sampleHdrSize = 5

// sampleDescSize is the wire size of one (offset, length) descriptor.
const sampleDescSize = 12

// MaxSampleDescs bounds descriptors per opReadSamples command, enforced
// before any allocation on the target. Clients split larger fetch
// groups across commands.
const MaxSampleDescs = 4096

// encodeSampleList frames a request payload into dst
// (len >= sampleHdrSize + len(segs)*sampleDescSize) and returns the
// encoded length.
func encodeSampleList(dst []byte, xform byte, segs []vecSeg) int {
	dst[0] = xform
	binary.LittleEndian.PutUint32(dst[1:5], uint32(len(segs)))
	p := sampleHdrSize
	for _, s := range segs {
		putDesc(dst[p:], s.off, int(s.n))
		p += sampleDescSize
	}
	return p
}

// decodeSampleList parses an opReadSamples request payload. Every bound
// — descriptor count, per-record length, total stored bytes plus the
// response length block — is enforced before the descriptor slice is
// allocated, so a corrupt count cannot drive a huge allocation.
func decodeSampleList(payload []byte) (xform byte, segs []vecSeg, total int, err error) {
	if len(payload) < sampleHdrSize {
		return 0, nil, 0, ErrShortFrame
	}
	xform = payload[0]
	if xform >= numTransforms {
		return 0, nil, 0, fmt.Errorf("nvmetcp: unknown transform %d", xform)
	}
	n := int(binary.LittleEndian.Uint32(payload[1:5]))
	if n <= 0 || n > MaxSampleDescs || len(payload) != sampleHdrSize+n*sampleDescSize {
		return 0, nil, 0, fmt.Errorf("%w: sample count %d payload %d", ErrShortFrame, n, len(payload))
	}
	segs = make([]vecSeg, n)
	p := sampleHdrSize
	for i := 0; i < n; i++ {
		segs[i] = vecSeg{
			off: binary.LittleEndian.Uint64(payload[p : p+8]),
			n:   binary.LittleEndian.Uint32(payload[p+8 : p+12]),
		}
		ln := segs[i].n
		if ln == 0 || int32(ln) < 0 {
			return 0, nil, 0, fmt.Errorf("%w: sample %d length %d", ErrShortFrame, i, int32(ln))
		}
		total += int(ln)
		if total+4*n > maxPayload {
			return 0, nil, 0, fmt.Errorf("%w: sample response %d bytes", ErrTooLarge, total+4*n)
		}
		p += sampleDescSize
	}
	return xform, segs, total, nil
}

// Gathered-write encoding (opWriteVec, the checkpoint-ingest opcode). A
// request payload is
//
//	count(u32) | count × (offset(u64) | length(u32)) | data
//
// where data is every extent's bytes concatenated in descriptor order,
// so one wire command lands a whole sharded checkpoint stripe. A
// successful response is header-only. The durability barrier opFlush
// carries no payload at all: it completes only once every write
// admitted before it on the same connection has been applied to the
// store.

// writeVecHdrSize is the fixed request prefix before the descriptors.
const writeVecHdrSize = 4

// encodeWriteVec frames the descriptor block of a gathered write into
// dst (len >= writeVecHdrSize + len(segs)*vecSegSize) and returns the
// encoded length; the caller appends the gathered data after it.
func encodeWriteVec(dst []byte, segs []vecSeg) int {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(len(segs)))
	p := writeVecHdrSize
	for _, s := range segs {
		putDesc(dst[p:], s.off, int(s.n))
		p += vecSegSize
	}
	return p
}
