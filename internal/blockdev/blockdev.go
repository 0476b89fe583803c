// Package blockdev provides the in-memory backing store that stands in for
// NVMe media. It stores real bytes in fixed-size extents allocated lazily,
// so a 1 TiB-addressable device costs memory only for the regions actually
// written. All reads and writes are byte-addressed; alignment to media
// blocks is the concern of the device model above it.
//
// Store is safe for concurrent use: the live (non-simulated) DLFS path
// reads from many goroutines, and TCP targets serve requests concurrently.
package blockdev

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// extentSize is the allocation granule. 1 MiB keeps the extent map small
// while bounding slack for small datasets.
const extentSize = 1 << 20

// zeroExtent backs views of never-written regions, which read as zeros.
// It is shared by every store and must never be written; WriteAt always
// materialises a fresh extent instead.
var zeroExtent = make([]byte, extentSize)

// Store is a sparse in-memory byte store of fixed capacity.
type Store struct {
	mu       sync.RWMutex
	capacity int64
	extents  map[int64][]byte // extent index -> extentSize bytes
	written  int64            // high-water mark of bytes stored (for stats)

	// epoch is a seqlock over the store contents: WriteAt increments it
	// to an odd value on entry and back to even on exit. A reader that
	// captured segments with View can compare epochs to detect that a
	// write landed (or is landing) since capture and fall back to a
	// locked copy. Extents are never freed or reallocated, so view
	// slices always reference live memory; the epoch only guards their
	// *contents*.
	epoch atomic.Uint64

	// viewPins counts flushers that are currently transmitting pinned
	// zero-copy views. While it is nonzero, writers clone any extent
	// they touch and swap the clone into the map instead of mutating in
	// place, so a pinned view's memory is immutable for as long as the
	// pin is held. Together with the epoch this closes the
	// check-then-use window: a flusher Pins, re-checks the epoch, and
	// transmits — a writer that raced past the epoch check is
	// guaranteed (by the seq-cst ordering of the two atomics) to have
	// observed the pin and gone copy-on-write, so the transmitted bytes
	// are the untorn pre-write image.
	viewPins atomic.Int64

	// cowClones counts extents cloned by the copy-on-write path, for
	// observability of how often writes collide with in-flight views.
	cowClones atomic.Int64

	// adoptedExts counts extents landed zero-copy by WriteVecAdopt — the
	// write-side analogue of zero-copy read views.
	adoptedExts atomic.Int64
}

// ErrOutOfRange reports access beyond the device capacity.
var ErrOutOfRange = errors.New("blockdev: access out of range")

// New returns a store with the given capacity in bytes.
func New(capacity int64) *Store {
	if capacity <= 0 {
		panic("blockdev: capacity must be positive")
	}
	return &Store{capacity: capacity, extents: make(map[int64][]byte)}
}

// Capacity returns the device capacity in bytes.
func (s *Store) Capacity() int64 { return s.capacity }

// AllocatedBytes reports how much extent memory is materialised.
func (s *Store) AllocatedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.extents)) * extentSize
}

func (s *Store) check(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > s.capacity {
		return fmt.Errorf("%w: off=%d len=%d cap=%d", ErrOutOfRange, off, n, s.capacity)
	}
	return nil
}

// WriteAt stores p at byte offset off.
func (s *Store) WriteAt(p []byte, off int64) (int, error) {
	if err := s.check(off, len(p)); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch.Add(1) // odd: write in flight
	defer s.epoch.Add(1)
	return s.writeLocked(p, off), nil
}

// writeLocked lands p at off. Caller holds s.mu and has already bumped
// the epoch odd; the epoch bump must happen before the first viewPins
// load below so the seq-cst total order over {epoch, viewPins} gives
// every writer/flusher race exactly one of two safe outcomes (COW here,
// or restage at the flusher).
func (s *Store) writeLocked(p []byte, off int64) int {
	if end := off + int64(len(p)); end > s.written {
		s.written = end
	}
	n := 0
	for n < len(p) {
		ext := (off + int64(n)) / extentSize
		within := (off + int64(n)) % extentSize
		buf, ok := s.extents[ext]
		switch {
		case !ok:
			buf = make([]byte, extentSize)
			s.extents[ext] = buf
		case s.viewPins.Load() > 0:
			// A flusher may be transmitting a view aliasing this
			// extent: never mutate it in place. Clone, write the
			// clone, and swap it into the map — the pinned view keeps
			// the old (untorn) array; future Views capture the clone.
			clone := make([]byte, extentSize)
			copy(clone, buf)
			s.extents[ext] = clone
			s.cowClones.Add(1)
			buf = clone
		}
		n += copy(buf[within:], p[n:])
	}
	return n
}

// WriteVecAt lands a gathered write — data carries the extents'
// bytes concatenated in (off, length) order — under a single lock
// acquisition and a single epoch bump, so a multi-extent checkpoint
// stripe becomes visible to readers atomically rather than as a
// sequence of independently-torn writes.
func (s *Store) WriteVecAt(data []byte, offs []int64, lens []int) (int, error) {
	total := 0
	for i, ln := range lens {
		if err := s.check(offs[i], ln); err != nil {
			return 0, err
		}
		total += ln
	}
	if total != len(data) {
		return 0, fmt.Errorf("%w: gathered %d bytes for %d described", ErrOutOfRange, len(data), total)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch.Add(1) // odd: write in flight
	defer s.epoch.Add(1)
	n := 0
	for i, ln := range lens {
		n += s.writeLocked(data[n:n+ln], offs[i])
	}
	return n, nil
}

// WriteVecAdopt lands a gathered write like WriteVecAt, but any span of
// it that covers a whole extent-aligned extent is adopted zero-copy: the
// corresponding sub-slice of data becomes the extent's backing array by
// pointer swap instead of being copied into store memory. Adoption is
// strictly better than copy-on-write — the displaced array is left
// intact, so a pinned view that aliases it keeps reading the untorn
// pre-write image for free. Misaligned or partial spans fall back to the
// copying path under the same single lock acquisition and epoch bump.
//
// It returns the byte count and the number of extents adopted. When
// adopted > 0 the store owns sub-slices of data's backing array: the
// caller must treat the buffer as transferred and never recycle or
// mutate it again.
func (s *Store) WriteVecAdopt(data []byte, offs []int64, lens []int) (int, int, error) {
	total := 0
	for i, ln := range lens {
		if err := s.check(offs[i], ln); err != nil {
			return 0, 0, err
		}
		total += ln
	}
	if total != len(data) {
		return 0, 0, fmt.Errorf("%w: gathered %d bytes for %d described", ErrOutOfRange, len(data), total)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch.Add(1) // odd: write in flight
	defer s.epoch.Add(1)
	n, adopted := 0, 0
	for i, ln := range lens {
		seg := data[n : n+ln]
		off := offs[i]
		done := 0
		for done < ln {
			within := (off + int64(done)) % extentSize
			chunk := extentSize - int(within)
			if rem := ln - done; chunk > rem {
				chunk = rem
			}
			if within == 0 && chunk == extentSize {
				ext := (off + int64(done)) / extentSize
				s.extents[ext] = seg[done : done+extentSize : done+extentSize]
				adopted++
			} else {
				s.writeLocked(seg[done:done+chunk], off+int64(done))
			}
			done += chunk
		}
		if end := off + int64(ln); end > s.written {
			s.written = end
		}
		n += ln
	}
	if adopted > 0 {
		s.adoptedExts.Add(int64(adopted))
	}
	return n, adopted, nil
}

// WriteVecAdoptSegs is the per-segment form of WriteVecAdopt: segs[i]
// lands at offs[i], all under one lock acquisition and one epoch bump.
// Segments that cover whole aligned extents are adopted by pointer
// swap; the rest are copied.
//
// The returned recycle list holds buffers that are safe to hand back
// to a pool: input segments that were fully copied (the store kept no
// reference), and displaced extent arrays that no pinned view can be
// transmitting — a displaced array is returned only when viewPins was
// zero after the epoch bump, so any flusher that pins later re-checks
// the epoch, sees this write, and restages instead of touching the old
// array. Input segments that were adopted (fully or partially) are
// owned by the store and never appear in the list.
func (s *Store) WriteVecAdoptSegs(segs [][]byte, offs []int64) (int, int, [][]byte, error) {
	for i, seg := range segs {
		if err := s.check(offs[i], len(seg)); err != nil {
			return 0, 0, nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch.Add(1) // odd: write in flight
	defer s.epoch.Add(1)
	n, adopted := 0, 0
	var recycle [][]byte
	for i, seg := range segs {
		off, ln := offs[i], len(seg)
		done, segAdopted := 0, false
		for done < ln {
			within := (off + int64(done)) % extentSize
			chunk := extentSize - int(within)
			if rem := ln - done; chunk > rem {
				chunk = rem
			}
			if within == 0 && chunk == extentSize {
				ext := (off + int64(done)) / extentSize
				if old, ok := s.extents[ext]; ok && s.viewPins.Load() == 0 {
					recycle = append(recycle, old)
				}
				s.extents[ext] = seg[done : done+extentSize : done+extentSize]
				adopted++
				segAdopted = true
			} else {
				s.writeLocked(seg[done:done+chunk], off+int64(done))
			}
			done += chunk
		}
		if !segAdopted && ln > 0 {
			recycle = append(recycle, seg)
		}
		if end := off + int64(ln); end > s.written {
			s.written = end
		}
		n += ln
	}
	if adopted > 0 {
		s.adoptedExts.Add(int64(adopted))
	}
	return n, adopted, recycle, nil
}

// Sync is the durability barrier of the device model: it returns only
// once every write that completed before the call is stable. For the
// in-memory store that is a write-lock acquisition — any in-flight
// writeLocked has released the lock, so its bytes are in the extent
// map and visible to every subsequent ReadAt.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return nil
}

// PinViews marks a zero-copy transmission in flight: until the matching
// UnpinViews, writers copy-on-write any extent they touch instead of
// mutating memory that captured views may alias.
func (s *Store) PinViews() { s.viewPins.Add(1) }

// UnpinViews releases a PinViews pin.
func (s *Store) UnpinViews() { s.viewPins.Add(-1) }

// CowClones reports how many extents the copy-on-write path has cloned
// because a write landed while views were pinned.
func (s *Store) CowClones() int64 { return s.cowClones.Load() }

// AdoptedExtents reports how many extents WriteVecAdopt has landed by
// pointer swap instead of copy.
func (s *Store) AdoptedExtents() int64 { return s.adoptedExts.Load() }

// ReadAt fills p from byte offset off. Unwritten regions read as zeros,
// like fresh flash after a format.
func (s *Store) ReadAt(p []byte, off int64) (int, error) {
	if err := s.check(off, len(p)); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.readLocked(p, off), nil
}

// readLocked fills p from off. Caller holds s.mu (read or write).
func (s *Store) readLocked(p []byte, off int64) int {
	n := 0
	for n < len(p) {
		ext := (off + int64(n)) / extentSize
		within := (off + int64(n)) % extentSize
		chunk := extentSize - int(within)
		if rem := len(p) - n; chunk > rem {
			chunk = rem
		}
		if buf, ok := s.extents[ext]; ok {
			copy(p[n:n+chunk], buf[within:])
		} else {
			zero(p[n : n+chunk])
		}
		n += chunk
	}
	return n
}

// ReadVecAt is the read-side twin of WriteVecAt: it fills p with the
// ranges (offs[i], lens[i]) concatenated in order, under a single lock
// acquisition, so a gathered write can never land between two of them
// and the result is one generation of every range.
func (s *Store) ReadVecAt(p []byte, offs []int64, lens []int) (int, error) {
	total := 0
	for i, ln := range lens {
		if err := s.check(offs[i], ln); err != nil {
			return 0, err
		}
		total += ln
	}
	if total != len(p) {
		return 0, fmt.Errorf("%w: scattering %d described bytes into %d", ErrOutOfRange, total, len(p))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for i, ln := range lens {
		n += s.readLocked(p[n:n+ln], offs[i])
	}
	return n, nil
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// WriteEpoch reports the store's write epoch. It is even when no write
// is in flight and odd while one is; any change between two reads means
// the contents may have moved under a zero-copy view taken in between.
func (s *Store) WriteEpoch() uint64 { return s.epoch.Load() }

// View appends to dst read-only segments that alias the store's memory
// for [off, off+n) — one segment per extent crossed, with unwritten
// extents served from a shared zero page — and returns the extended
// slice plus the write epoch at capture time. No bytes are copied.
//
// The segments stay valid memory forever (extents are never freed), but
// their contents are only stable under the write-once read-many model:
// callers that must not transmit torn data re-check WriteEpoch against
// the returned epoch immediately before using the view and fall back to
// ReadAt (which takes the lock) on a mismatch.
func (s *Store) View(off int64, n int, dst [][]byte) ([][]byte, uint64, error) {
	if err := s.check(off, n); err != nil {
		return dst, 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Under RLock no writer holds the lock, so the epoch is even and
	// every segment captured below is consistent as of this epoch.
	epoch := s.epoch.Load()
	done := 0
	for done < n {
		ext := (off + int64(done)) / extentSize
		within := (off + int64(done)) % extentSize
		chunk := extentSize - int(within)
		if rem := n - done; chunk > rem {
			chunk = rem
		}
		buf, ok := s.extents[ext]
		if !ok {
			buf = zeroExtent
		}
		dst = append(dst, buf[within:int(within)+chunk])
		done += chunk
	}
	return dst, epoch, nil
}

// HighWater reports one past the largest byte offset ever written.
func (s *Store) HighWater() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.written
}
