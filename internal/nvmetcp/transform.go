package nvmetcp

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Transform registry for opReadSamples: the per-sample stage the target
// runs between extent extraction and flush, so clients receive
// training-ready bytes and the NIC carries less. IDs are wire-stable.
//
//   - TransformNone: the stored record as-is, served from zero-copy
//     extent views.
//   - TransformCRC32C: record + 4-byte Castagnoli CRC trailer, giving
//     end-to-end integrity over wire and assembly. Verify client-side
//     with VerifyCRC32C. Served from the same views (the body is never
//     copied, only checksummed; Target.assembleViews). The transforms
//     below rewrite the body, so they read the records under the store
//     lock into a staged copy, torn-write free by construction.
//   - TransformFlate: the stored record is DEFLATE-compressed; the
//     target decompresses so only the client-ready expansion crosses
//     the RPQ/SCQ engine once, not the client CPU. Output size is
//     data-dependent (TransformOutLen returns -1).
//   - TransformStride: every strideStep-th byte of the record —
//     the paper-adjacent "sample-skip" subsampling filter, halving
//     wire bytes for workloads that train on decimated records.
const (
	TransformNone byte = iota
	TransformCRC32C
	TransformFlate
	TransformStride

	numTransforms
)

// strideStep is TransformStride's decimation factor.
const strideStep = 2

// crc32cTable is the Castagnoli polynomial table shared by the target
// append and the client verify.
var crc32cTable = crc32.MakeTable(crc32.Castagnoli)

// TransformValid reports whether x names a registered transform.
func TransformValid(x byte) bool { return x < numTransforms }

// TransformName returns the human-readable transform name.
func TransformName(x byte) string {
	switch x {
	case TransformNone:
		return "none"
	case TransformCRC32C:
		return "crc32c"
	case TransformFlate:
		return "flate"
	case TransformStride:
		return "stride"
	default:
		return fmt.Sprintf("transform(%d)", x)
	}
}

// TransformOutLen returns the post-transform size of an n-byte record,
// or -1 when the size is data-dependent (TransformFlate). Clients use
// it to size destination buffers before posting an offload command.
func TransformOutLen(x byte, n int) int {
	switch x {
	case TransformNone:
		return n
	case TransformCRC32C:
		return n + 4
	case TransformStride:
		return (n + strideStep - 1) / strideStep
	default:
		return -1
	}
}

// VerifyCRC32C checks a TransformCRC32C record's trailing Castagnoli
// CRC and returns the record body with the 4-byte trailer stripped.
// The body aliases buf, so pooled buffers recycle unchanged.
func VerifyCRC32C(buf []byte) ([]byte, bool) {
	if len(buf) < 4 {
		return nil, false
	}
	body := buf[:len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	return body, crc32.Checksum(body, crc32cTable) == want
}

// transformInto applies a fixed-output-size transform of src into dst,
// where len(dst) == TransformOutLen(x, len(src)).
func transformInto(x byte, src, dst []byte) error {
	switch x {
	case TransformCRC32C:
		n := copy(dst, src)
		binary.LittleEndian.PutUint32(dst[n:], crc32.Checksum(src, crc32cTable))
		return nil
	case TransformStride:
		j := 0
		for i := 0; i < len(src); i += strideStep {
			dst[j] = src[i]
			j++
		}
		return nil
	default:
		return fmt.Errorf("nvmetcp: transform %s has no fixed-size path", TransformName(x))
	}
}

// transformAlloc applies a data-dependent-size transform (flate) to
// src, returning output allocated via alloc (a pool Get). limit bounds
// the decompressed size so a record cannot expand past the remaining
// response budget.
func transformAlloc(x byte, src []byte, limit int, alloc func(int) []byte) ([]byte, error) {
	if x != TransformFlate {
		return nil, fmt.Errorf("nvmetcp: transform %s has no variable-size path", TransformName(x))
	}
	fr := flate.NewReader(bytes.NewReader(src))
	defer fr.Close() //nolint:errcheck
	var out bytes.Buffer
	n, err := io.Copy(&out, io.LimitReader(fr, int64(limit)+1))
	if err != nil {
		return nil, fmt.Errorf("nvmetcp: flate: %w", err)
	}
	if n > int64(limit) {
		return nil, fmt.Errorf("%w: flate expansion past %d bytes", ErrTooLarge, limit)
	}
	buf := alloc(int(n))
	copy(buf, out.Bytes())
	return buf, nil
}
