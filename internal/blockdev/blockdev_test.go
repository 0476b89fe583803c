package blockdev

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestReadAfterWrite(t *testing.T) {
	s := New(10 << 20)
	data := []byte("hello nvme world")
	if _, err := s.WriteAt(data, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	s := New(4 << 20)
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = 0xFF
	}
	if _, err := s.ReadAt(buf, 3<<20); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestCrossExtentWriteRead(t *testing.T) {
	s := New(8 << 20)
	data := make([]byte, 3<<20) // spans 4 extents when offset is unaligned
	for i := range data {
		data[i] = byte(i * 7)
	}
	off := int64(1<<20 - 13)
	if _, err := s.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-extent round trip mismatch")
	}
}

func TestPartialOverlapReads(t *testing.T) {
	s := New(1 << 20)
	s.WriteAt([]byte{1, 2, 3, 4}, 100) //nolint:errcheck
	got := make([]byte, 8)
	s.ReadAt(got, 98) //nolint:errcheck
	want := []byte{0, 0, 1, 2, 3, 4, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestReadVecAtGathersRanges(t *testing.T) {
	s := New(4 << 20)
	s.WriteAt([]byte{1, 2, 3, 4}, 100)  //nolint:errcheck
	s.WriteAt([]byte{9, 8, 7}, 2<<20+5) //nolint:errcheck
	got := make([]byte, 7)
	if n, err := s.ReadVecAt(got, []int64{2<<20 + 6, 99, 3 << 20}, []int{2, 3, 2}); err != nil || n != 7 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if want := []byte{8, 7, 0, 1, 2, 0, 0}; !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if _, err := s.ReadVecAt(got, []int64{0, 4<<20 - 1}, []int{5, 2}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("range past end: %v", err)
	}
	if _, err := s.ReadVecAt(got, []int64{0}, []int{6}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("described bytes != buffer: %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	s := New(1000)
	if _, err := s.WriteAt(make([]byte, 10), 995); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write past end: %v", err)
	}
	if _, err := s.ReadAt(make([]byte, 10), -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative read: %v", err)
	}
	if _, err := s.WriteAt(make([]byte, 1000), 0); err != nil {
		t.Fatalf("exact-fit write: %v", err)
	}
}

func TestCapacityAndStats(t *testing.T) {
	s := New(64 << 20)
	if s.Capacity() != 64<<20 {
		t.Fatal("capacity")
	}
	if s.AllocatedBytes() != 0 {
		t.Fatal("fresh store has allocation")
	}
	s.WriteAt([]byte{1}, 5<<20) //nolint:errcheck
	if s.AllocatedBytes() != 1<<20 {
		t.Fatalf("allocated %d", s.AllocatedBytes())
	}
	if s.HighWater() != 5<<20+1 {
		t.Fatalf("high water %d", s.HighWater())
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0)
}

func TestConcurrentAccess(t *testing.T) {
	s := New(32 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := range buf {
				buf[i] = byte(g)
			}
			off := int64(g) * (1 << 20)
			for iter := 0; iter < 200; iter++ {
				if _, err := s.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 4096)
				if _, err := s.ReadAt(got, off); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("goroutine %d read mismatch", g)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestViewMatchesReadAt(t *testing.T) {
	s := New(8 << 20)
	data := make([]byte, 3<<20) // straddles extent boundaries
	for i := range data {
		data[i] = byte(i*3 + 1)
	}
	off := int64(1<<20 - 77)
	if _, err := s.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	segs, epoch, err := s.View(off, len(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != s.WriteEpoch() {
		t.Fatalf("epoch %d moved to %d with no write", epoch, s.WriteEpoch())
	}
	if len(segs) < 3 {
		t.Fatalf("cross-extent view produced %d segments", len(segs))
	}
	var flat []byte
	for _, seg := range segs {
		flat = append(flat, seg...)
	}
	if !bytes.Equal(flat, data) {
		t.Fatal("view bytes diverge from written data")
	}
}

func TestViewUnwrittenReadsZero(t *testing.T) {
	s := New(4 << 20)
	segs, _, err := s.View(3<<20-100, 200, nil) // never-written region
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, seg := range segs {
		total += len(seg)
		for i, b := range seg {
			if b != 0 {
				t.Fatalf("unwritten view byte %d = %#x", i, b)
			}
		}
	}
	if total != 200 {
		t.Fatalf("view covered %d bytes, want 200", total)
	}
}

func TestViewOutOfRange(t *testing.T) {
	s := New(1000)
	if _, _, err := s.View(995, 10, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("view past end: %v", err)
	}
	if _, _, err := s.View(-1, 4, nil); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative view: %v", err)
	}
}

func TestWriteEpochDetectsOverwrite(t *testing.T) {
	s := New(1 << 20)
	s.WriteAt([]byte("generation one"), 0) //nolint:errcheck
	segs, epoch, err := s.View(0, 14, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch%2 != 0 {
		t.Fatalf("epoch %d odd outside a write", epoch)
	}
	if s.WriteEpoch() != epoch {
		t.Fatal("epoch moved with no write")
	}
	s.WriteAt([]byte("generation two"), 0) //nolint:errcheck
	if s.WriteEpoch() == epoch {
		t.Fatal("overwrite did not advance the epoch")
	}
	// The view now exposes the new contents (it aliases store memory):
	// exactly why the epoch check exists.
	if string(segs[0]) != "generation two" {
		t.Fatalf("aliased view reads %q", segs[0])
	}
}

// Views of disjoint extents stay stable while other regions are being
// written concurrently — the hot case on a target serving reads while a
// mount uploads elsewhere. (Same-region write-during-view is excluded by
// the write-once model and guarded by the epoch.)
func TestViewStableUnderDisjointWrites(t *testing.T) {
	s := New(32 << 20)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	s.WriteAt(data, 0) //nolint:errcheck
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8192)
		for off := int64(16 << 20); ; off += 8192 {
			select {
			case <-stop:
				return
			default:
			}
			if off+8192 > 32<<20 {
				off = 16 << 20
			}
			s.WriteAt(buf, off) //nolint:errcheck
		}
	}()
	for iter := 0; iter < 200; iter++ {
		segs, _, err := s.View(0, len(data), nil)
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		for _, seg := range segs {
			if !bytes.Equal(seg, data[pos:pos+len(seg)]) {
				t.Fatal("view of quiescent region changed under disjoint writes")
			}
			pos += len(seg)
		}
	}
	close(stop)
	wg.Wait()
}

// Property: read-after-write returns the written bytes at arbitrary
// offsets and lengths, including extent-straddling ones.
func TestReadAfterWriteProperty(t *testing.T) {
	s := New(16 << 20)
	f := func(offRaw uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw) % (16<<20 - int64(len(data)))
		if _, err := s.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := s.ReadAt(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
