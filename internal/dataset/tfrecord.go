// TFRecord-style batched container. The paper notes DLFS keeps sample-level
// index entries even for batched formats ("we are able to have direct
// access to any samples in a TFRecord file", §III-B1), plus one entry for
// the batched file itself for file-oriented access. This file implements a
// minimal binary container with that property: samples are concatenated
// with per-record headers, and a Record index gives byte-exact sample
// locations for the directory.

package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// recordHeaderSize is the per-record framing: u64 length + u32 crc of the
// payload (the real TFRecord uses u64 length + crc + data + crc; we keep
// one crc, enough to detect corruption in tests).
const recordHeaderSize = 12

// Record locates one sample inside a batched container.
type Record struct {
	SampleIndex int   // index into the source dataset
	Offset      int64 // byte offset of the payload inside the container
	Length      int32 // payload length
}

// Container is a built batched file: its raw bytes plus the sample index.
type Container struct {
	Name    string
	Data    []byte
	Records []Record
}

// BuildContainer packs the given samples of d into one batched file, in the
// order given. The returned container's Records point at payload bytes
// (after each record header).
func BuildContainer(d *Dataset, name string, indices []int) *Container {
	var total int
	for _, i := range indices {
		total += recordHeaderSize + d.Samples[i].Size
	}
	c := &Container{Name: name, Data: make([]byte, 0, total)}
	for _, i := range indices {
		payload := d.Content(i)
		var hdr [recordHeaderSize]byte
		binary.LittleEndian.PutUint64(hdr[0:8], uint64(len(payload)))
		binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(payload, castagnoli))
		off := int64(len(c.Data)) + recordHeaderSize
		c.Data = append(c.Data, hdr[:]...)
		c.Data = append(c.Data, payload...)
		c.Records = append(c.Records, Record{SampleIndex: i, Offset: off, Length: int32(len(payload))})
	}
	return c
}

// ErrCorrupt reports a container integrity failure.
var ErrCorrupt = errors.New("dataset: corrupt container record")

// ReadRecord extracts and verifies the r-th record's payload.
func (c *Container) ReadRecord(r int) ([]byte, error) {
	if r < 0 || r >= len(c.Records) {
		return nil, fmt.Errorf("dataset: record %d out of range [0,%d)", r, len(c.Records))
	}
	rec := c.Records[r]
	hdrOff := rec.Offset - recordHeaderSize
	if hdrOff < 0 || rec.Offset+int64(rec.Length) > int64(len(c.Data)) {
		return nil, ErrCorrupt
	}
	length := binary.LittleEndian.Uint64(c.Data[hdrOff : hdrOff+8])
	wantCRC := binary.LittleEndian.Uint32(c.Data[hdrOff+8 : hdrOff+12])
	if length != uint64(rec.Length) {
		return nil, ErrCorrupt
	}
	payload := c.Data[rec.Offset : rec.Offset+int64(rec.Length)]
	if crc32.Checksum(payload, castagnoli) != wantCRC {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// Scan walks the container from the front, rebuilding the record index
// without an external index — what a sequential TFRecord reader does. It
// verifies each record's checksum.
func Scan(data []byte) ([]Record, error) {
	var recs []Record
	off := int64(0)
	for off < int64(len(data)) {
		if off+recordHeaderSize > int64(len(data)) {
			return nil, ErrCorrupt
		}
		length := int64(binary.LittleEndian.Uint64(data[off : off+8]))
		wantCRC := binary.LittleEndian.Uint32(data[off+8 : off+12])
		payloadOff := off + recordHeaderSize
		// Not payloadOff+length > len(data): a huge claimed length wraps.
		if length < 0 || length > int64(len(data))-payloadOff {
			return nil, ErrCorrupt
		}
		payload := data[payloadOff : payloadOff+length]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			return nil, ErrCorrupt
		}
		recs = append(recs, Record{SampleIndex: len(recs), Offset: payloadOff, Length: int32(length)})
		off = payloadOff + length
	}
	return recs, nil
}
