package nvmetcp

import "sync"

// crcMemoSlots is the checksum memo's size, a constant: descriptor lists
// come off the wire from any tenant, so storage that grew with distinct
// (off, n) pairs would be a memory-exhaustion hole. 2 MiB of slots per
// target, enough that a dataset shard of a few thousand records rarely
// has two on one slot.
const (
	crcMemoBits  = 16
	crcMemoSlots = 1 << crcMemoBits
)

// crcMemo remembers the crc32c trailers assembleViews has computed
// (DESIGN.md §15). It is direct-mapped: a record has one slot, and a
// record that finds another's entry there recomputes and replaces it.
// The slots are allocated by the first crc32c command, so a target that
// never serves one pays nothing.
type crcMemo struct {
	once  sync.Once
	slots []crcSlot
}

// crcSlot holds one record's trailer and the store write epoch it was
// computed under. The zero slot matches nothing: no record has n == 0
// (decodeSampleList). The lock is the slot's own, so a hit shares
// nothing with a command working on other records.
type crcSlot struct {
	mu    sync.Mutex
	off   uint64
	epoch uint64
	n     uint32
	crc   uint32
}

func (m *crcMemo) slot(s vecSeg) *crcSlot {
	m.once.Do(func() { m.slots = make([]crcSlot, crcMemoSlots) })
	return &m.slots[crcSlotIndex(s)]
}

// crcSlotIndex takes the top bits of a multiplicative hash of each key
// half: records lie end to end, so the low bits of their offsets alone
// would cluster.
func crcSlotIndex(s vecSeg) int {
	h := s.off*0x9E3779B97F4A7C15 ^ uint64(s.n)*0xC2B2AE3D27D4EB4F
	return int(h >> (64 - crcMemoBits))
}

// lookup returns the trailer memoised for exactly s under exactly epoch.
// The whole key is compared, so a collision cannot hand out another
// record's trailer; the epoch is compared, so a trailer computed before
// any write the store has since taken is never used.
func (sl *crcSlot) lookup(s vecSeg, epoch uint64) (uint32, bool) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.off != s.off || sl.n != s.n || sl.epoch != epoch {
		return 0, false
	}
	return sl.crc, true
}

func (sl *crcSlot) store(s vecSeg, epoch uint64, crc uint32) {
	sl.mu.Lock()
	sl.off, sl.n, sl.epoch, sl.crc = s.off, s.n, epoch, crc
	sl.mu.Unlock()
}
