package live

// Checkpoint ingest: the write-heavy half of the training I/O space.
// A Checkpointer streams one rank's model/optimizer state through the
// same multi-queue nvmetcp pipeline the read path uses — sharded into
// fixed-size extents, gathered into opWriteVec commands striped across
// every target's queue pairs, made durable by per-target opFlush
// barriers, and committed by a manifest record that is written only
// after the data it describes is stable. Ranks double-buffer between
// two slots so a crash mid-save can never destroy the previous
// checkpoint, and a cluster save ends with a coordinator barrier so
// step N's checkpoint is epoch-consistent across ranks.
//
// Commit ordering (the crash-consistency argument):
//
//  1. shard data lands in the slot NOT holding the newest committed
//     checkpoint, via gathered writes. Saves alternate slots no matter
//     what step cadence the caller uses; the first save of a
//     Checkpointer's lifetime derives the slot from the on-target
//     manifests, so a restarted rank resumes the alternation;
//  2. every written target is flushed — opFlush completes only after
//     the target applied this connection's writes and synced;
//  3. the manifest (magic, step, length, CRC of the data) is written
//     and flushed last, as the commit record.
//
// Load verifies the manifest CRC and then the data CRC; a crash at any
// point before step 3 leaves the old manifest in place (possibly over
// torn data, which the data CRC rejects), so Load falls back to the
// other slot — always a complete, byte-exact earlier checkpoint.
//
// With CheckpointConfig.NoDataCRC the data CRC pass is skipped and the
// torn-slot argument becomes structural instead: step 0 voids the
// slot's manifest (zeroed and flushed) before any shard is posted, so
// between step 0 and step 3 the slot carries no commit record at all
// and Load cannot mistake its half-written data for the older
// checkpoint the stale manifest used to describe.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"time"

	"dlfs/internal/nvmetcp"
)

// ErrNoCheckpoint reports that no slot holds a valid committed
// checkpoint (fresh region, or both slots failed verification).
var ErrNoCheckpoint = errors.New("live: no valid checkpoint")

// ErrCheckpointCorrupt reports a committed manifest whose data failed
// the byte-exact read-back check.
var ErrCheckpointCorrupt = errors.New("live: checkpoint data corrupt")

// ckptMagic tags a checkpoint manifest committed with a whole-state
// data CRC ("DLCK", little-endian); ckptMagicNoCRC tags one committed
// without ("DLCN"). Load accepts either, so a job may flip NoDataCRC
// between saves and still restore from whichever slot is newest.
const (
	ckptMagic      = 0x4B434C44
	ckptMagicNoCRC = 0x4E434C44
)

// ckptCRCTable is the polynomial for the manifest's whole-state data
// CRC. Castagnoli rather than IEEE: the data CRC is a full pass over
// the checkpoint on every save, and Castagnoli maps to the dedicated
// CRC32 instruction on amd64/arm64 — several times cheaper than even
// the carry-less-multiply IEEE kernel, which matters when the pass
// shares one core with the socket copies it overlaps. The tiny 36-byte
// header CRC stays IEEE; it is not on any per-byte path.
var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// ckptManifestSize is the encoded manifest record; ckptManifestReserve
// is the region set aside for it at each slot base. It is one store
// extent (1 MiB), so shard data starts extent-aligned and extent-sized
// shards land zero-copy on the target via buffer adoption.
const (
	ckptManifestSize    = 40
	ckptManifestReserve = 1 << 20
)

// CheckpointConfig tunes a Checkpointer. The zero value takes defaults.
type CheckpointConfig struct {
	// ShardBytes is the checkpoint sharding granule: state is split
	// into extents of this size, striped round-robin across targets.
	// Default 1 MiB.
	ShardBytes int

	// SegsPerCmd bounds how many shards one gathered opWriteVec command
	// carries. Default 8 (8 MiB of payload per wire command at the
	// default shard size, well under the frame cap).
	SegsPerCmd int

	// BaseOffset is where the checkpoint region starts on every target.
	// Zero derives it from the mounted dataset's high-water mark,
	// rounded up to the next MiB, so checkpoints never collide with
	// training data.
	BaseOffset int64

	// RankRegionBytes is each rank's region size per target, split into
	// two double-buffered slots. A save needs its total per-target
	// footprint (shards + manifest reserve) to fit one slot. Default
	// 64 MiB.
	RankRegionBytes int64

	// NoDataCRC skips the manifest's whole-state data CRC. The CRC is
	// an extra full pass over the checkpoint on every save and restore;
	// on hosts where the save shares cores with the socket copies it is
	// a measurable slice of the ingest budget. Without it, crash
	// consistency is preserved structurally: Save first invalidates the
	// slot's manifest and flushes, so a crash mid-save can only leave a
	// slot whose commit record is already void — Load falls back to the
	// other slot. What is lost is only detection of silent corruption
	// of data at rest between save and restore.
	NoDataCRC bool
}

func (c CheckpointConfig) withDefaults() CheckpointConfig {
	orDefault(&c.ShardBytes, 1<<20)
	orDefault(&c.SegsPerCmd, 8)
	orDefault(&c.RankRegionBytes, 64<<20)
	return c
}

// Checkpointer streams sharded per-rank checkpoints through the
// mount's multi-queue write pipeline. One instance per rank; safe for
// use from one goroutine at a time (training loops checkpoint
// serially).
type Checkpointer struct {
	fs   *FS
	cfg  CheckpointConfig
	base int64 // this rank's region base on every target

	// nextSlot is the double-buffer slot (0 or 1) the next save commits
	// into; -1 until derived from the on-target manifests by the first
	// save. It only advances when a save commits, so a failed save
	// retries into the same slot rather than clobbering the good one.
	nextSlot int
}

// Checkpointer binds a checkpoint region above the mounted dataset.
// The region layout is deterministic from (BaseOffset, RankRegionBytes,
// rank), so a restarted rank — or a different process — finds its
// checkpoints without any directory state.
func (fs *FS) Checkpointer(cfg CheckpointConfig) (*Checkpointer, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseOffset <= 0 {
		cfg.BaseOffset = (fs.dataHighWater() + (1 << 20)) &^ ((1 << 20) - 1)
	}
	if cfg.RankRegionBytes/2 <= ckptManifestReserve {
		return nil, fmt.Errorf("live: checkpoint slot of %d bytes below the manifest reserve", cfg.RankRegionBytes/2)
	}
	world := fs.world
	if world < 1 {
		world = 1
	}
	need := cfg.BaseOffset + int64(world)*cfg.RankRegionBytes
	for _, tg := range fs.targets {
		if c := tg.qp.Capacity(); c < need {
			return nil, fmt.Errorf("live: target %s capacity %d below checkpoint region end %d", tg.addr, c, need)
		}
	}
	return &Checkpointer{
		fs:       fs,
		cfg:      cfg,
		base:     cfg.BaseOffset + int64(fs.rank)*cfg.RankRegionBytes,
		nextSlot: -1,
	}, nil
}

// dataHighWater reports one past the largest dataset byte offset in use
// on any target: the longest shard.
func (fs *FS) dataHighWater() int64 { return slices.Max(fs.shardLen) }

// slotBase returns the base offset of double-buffer slot idx (0 or 1).
func (c *Checkpointer) slotBase(idx int) int64 {
	return c.base + int64(idx)*(c.cfg.RankRegionBytes/2)
}

// saveSlot picks the slot the next save commits into: always the one
// NOT holding the newest committed checkpoint, so a crash mid-save can
// only tear the slot being replaced, never the one Load falls back to.
// Keying on the caller's step would break this — a same-parity cadence
// like Save(1000), Save(2000), Save(3000) would reuse one slot for
// every save and overwrite the only previous checkpoint before the new
// manifest commits. The first save of a Checkpointer's lifetime derives
// the slot from the on-target manifests, so a restarted rank — or a
// different process — resumes the alternation instead of blindly
// reusing slot 0.
func (c *Checkpointer) saveSlot() (int, error) {
	if c.nextSlot >= 0 {
		return c.nextSlot, nil
	}
	committed, newest := -1, uint64(0)
	for s := 0; s < 2; s++ {
		m, err := c.readManifest(c.slotBase(s))
		if err != nil {
			if errors.Is(err, ErrNoCheckpoint) {
				continue
			}
			return 0, err
		}
		if committed == -1 || m.step > newest {
			committed, newest = s, m.step
		}
	}
	if committed == 0 {
		return 1, nil
	}
	return 0, nil
}

// ckptLayout is the deterministic shard placement of one save: shard i
// goes to target i%T at dataBase + (i/T)*ShardBytes.
type ckptLayout struct {
	dataBase   int64
	shardBytes int
	targets    int
}

func (l ckptLayout) place(shard int) (tgt int, off int64) {
	return shard % l.targets, l.dataBase + int64(shard/l.targets)*int64(l.shardBytes)
}

// Save commits state as this rank's checkpoint for step. It returns
// once the data and its manifest are durable on the targets and — on
// cluster mounts — every rank has reached the same point.
func (c *Checkpointer) Save(step uint64, state []byte) error {
	if len(state) == 0 {
		return errors.New("live: empty checkpoint state")
	}
	start := time.Now()
	fs := c.fs
	slotIdx, err := c.saveSlot()
	if err != nil {
		return fmt.Errorf("live: deriving checkpoint slot: %w", err)
	}
	slot := c.slotBase(slotIdx)
	nT := len(fs.targets)
	shards := (len(state) + c.cfg.ShardBytes - 1) / c.cfg.ShardBytes
	perTarget := int64((shards+nT-1)/nT) * int64(c.cfg.ShardBytes)
	if ckptManifestReserve+perTarget > c.cfg.RankRegionBytes/2 {
		return fmt.Errorf("live: checkpoint of %d bytes (%d per target) exceeds the %d-byte slot",
			len(state), perTarget, c.cfg.RankRegionBytes/2)
	}
	layout := ckptLayout{dataBase: slot + ckptManifestReserve, shardBytes: c.cfg.ShardBytes, targets: nT}

	// The manifest's whole-state CRC is a full memory pass; computing it
	// while the shards are on the wire hides it behind the socket stalls
	// of the shipping phase instead of serialising it before the commit
	// record. The channel is buffered so an early error return cannot
	// strand the goroutine.
	//
	// Without the CRC, torn data under a stale manifest would be
	// undetectable, so the slot's commit record is voided up front —
	// written zero and flushed before any shard can land. From that
	// point until the new manifest commits, a crash leaves a slot Load
	// provably rejects.
	var crcCh chan uint32
	if c.cfg.NoDataCRC {
		if err := fs.targets[0].send(false, nil, nil, nvmetcp.Command{Op: nvmetcp.OpWrite, Buf: make([]byte, ckptManifestSize), Off: slot}); err != nil {
			return fmt.Errorf("live: checkpoint manifest invalidate: %w", err)
		}
		if err := c.flushTarget(0); err != nil {
			return err
		}
	} else {
		crcCh = make(chan uint32, 1)
		go func() { crcCh <- crc32.Checksum(state, ckptCRCTable) }()
	}

	// Stripe the shards: per-target gathered commands posted in
	// parallel across targets, pipelined within each target.
	segsOf := make([][]nvmetcp.WSeg, nT)
	for s := 0; s < shards; s++ {
		lo := s * c.cfg.ShardBytes
		hi := min(lo+c.cfg.ShardBytes, len(state))
		tgt, off := layout.place(s)
		segsOf[tgt] = append(segsOf[tgt], nvmetcp.WSeg{Src: state[lo:hi], Off: off})
	}
	took := func(t int) bool { return len(segsOf[t]) > 0 }
	if err := eachTarget(nT, took, func(t int) error { return c.writeTarget(t, segsOf[t]) }); err != nil {
		return err
	}

	// Durability barrier on every target that took shards — issued in
	// parallel, since each target's barrier only orders that target's own
	// writes — then the manifest as the commit record, written and
	// flushed only after the data it describes is stable everywhere.
	if err := eachTarget(nT, took, c.flushTarget); err != nil {
		return err
	}
	man := make([]byte, ckptManifestSize)
	magic := uint32(ckptMagic)
	if c.cfg.NoDataCRC {
		magic = ckptMagicNoCRC
	}
	binary.LittleEndian.PutUint32(man[0:4], magic)
	binary.LittleEndian.PutUint64(man[4:12], step)
	binary.LittleEndian.PutUint64(man[12:20], uint64(len(state)))
	binary.LittleEndian.PutUint32(man[20:24], uint32(c.cfg.ShardBytes))
	binary.LittleEndian.PutUint32(man[24:28], uint32(shards))
	if crcCh != nil {
		binary.LittleEndian.PutUint32(man[28:32], <-crcCh)
	}
	binary.LittleEndian.PutUint32(man[32:36], crc32.ChecksumIEEE(man[:32]))
	if err := fs.targets[0].send(false, nil, nil, nvmetcp.Command{Op: nvmetcp.OpWrite, Buf: man, Off: slot}); err != nil {
		return fmt.Errorf("live: checkpoint manifest: %w", err)
	}
	if err := c.flushTarget(0); err != nil {
		return err
	}
	// The manifest is durable: this slot now holds the newest committed
	// checkpoint, so the next save targets the other one. Flipping only
	// here means a failed save retries into the same slot.
	c.nextSlot = 1 - slotIdx

	// Epoch-consistent snapshot: on cluster mounts no rank's Save
	// returns until every rank committed, so a job restarting from step
	// N never mixes it with step N-1 state from a straggler.
	if fs.coord != nil {
		if err := fs.coord.Barrier(fmt.Sprintf("dlfs/ckpt/%d", step)); err != nil {
			return fmt.Errorf("live: checkpoint barrier: %w", err)
		}
	}
	fs.pipe.CkptSaves.Add(1)
	fs.pipe.CkptNanos.Add(int64(time.Since(start)))
	return nil
}

// eachTarget runs fn, in parallel, for every target of n that has work,
// and returns the lowest-numbered target's error.
func eachTarget(n int, has func(t int) bool, fn func(t int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for t := 0; t < n; t++ {
		if has(t) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[t] = fn(t)
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeTarget ships one target's shard set on the mount's bulk-write
// engine: gathered commands of up to SegsPerCmd extents, a bounded
// number in flight. state is the caller's and outlives the save, so no
// batch needs a release.
func (c *Checkpointer) writeTarget(t int, segs []nvmetcp.WSeg) error {
	bw := newBulkWriter(c.fs.targets[t], c.fs.pipe)
	for lo := 0; lo < len(segs); lo += c.cfg.SegsPerCmd {
		if !bw.post(segs[lo:min(lo+c.cfg.SegsPerCmd, len(segs))], nil) {
			break
		}
	}
	if err := bw.wait(); err != nil {
		return fmt.Errorf("live: checkpoint write to target %d: %w", t, err)
	}
	return nil
}

// flushTarget runs the durability barrier on one target (target.flush
// says what a target without opFlush gets instead).
func (c *Checkpointer) flushTarget(t int) error {
	flushed, err := c.fs.targets[t].flush()
	switch {
	case err != nil:
		return fmt.Errorf("live: checkpoint flush on target %d: %w", t, err)
	case flushed:
		c.fs.pipe.CkptFlushes.Add(1)
	default:
		c.fs.pipe.CkptDowngrades.Add(1)
	}
	return nil
}

// ckptManifest is one slot's decoded commit record.
type ckptManifest struct {
	step       uint64
	totalLen   int
	shardBytes int
	shards     int
	dataCRC    uint32
	hasCRC     bool
}

// readManifest fetches and verifies one slot's manifest. A slot that
// was never written, invalidated by an in-progress no-CRC save, or
// whose commit record is torn, fails the magic or header-CRC check and
// reports ErrNoCheckpoint.
func (c *Checkpointer) readManifest(slot int64) (ckptManifest, error) {
	man := make([]byte, ckptManifestSize)
	if rerr := c.fs.targets[0].send(false, nil, nil, nvmetcp.Command{Op: nvmetcp.OpRead, Buf: man, Off: slot}); rerr != nil {
		return ckptManifest{}, fmt.Errorf("live: reading manifest: %w", rerr)
	}
	magic := binary.LittleEndian.Uint32(man[0:4])
	if (magic != ckptMagic && magic != ckptMagicNoCRC) ||
		binary.LittleEndian.Uint32(man[32:36]) != crc32.ChecksumIEEE(man[:32]) {
		return ckptManifest{}, ErrNoCheckpoint
	}
	m := ckptManifest{
		step:       binary.LittleEndian.Uint64(man[4:12]),
		totalLen:   int(binary.LittleEndian.Uint64(man[12:20])),
		shardBytes: int(binary.LittleEndian.Uint32(man[20:24])),
		shards:     int(binary.LittleEndian.Uint32(man[24:28])),
		dataCRC:    binary.LittleEndian.Uint32(man[28:32]),
		hasCRC:     magic == ckptMagic,
	}
	if m.totalLen <= 0 || m.shardBytes <= 0 || m.shards != (m.totalLen+m.shardBytes-1)/m.shardBytes {
		return ckptManifest{}, ErrNoCheckpoint
	}
	return m, nil
}

// Load restores this rank's newest committed checkpoint: it orders the
// slots by committed step, re-reads the sharded data through the
// vectored read path, and verifies it byte-exact against the manifest
// CRC. A slot whose committed data fails that check — torn by a crash
// the manifest survived, or rotted at rest — is skipped in favour of
// the other slot's older but intact checkpoint; ErrCheckpointCorrupt
// is returned only when no committed slot verifies. The returned
// buffer comes from the mount's pool — hand it back with Recycle when
// done.
func (c *Checkpointer) Load() (state []byte, step uint64, err error) {
	type cand struct {
		slot int64
		ckptManifest
	}
	var cands []cand
	for s := 0; s < 2; s++ {
		slot := c.slotBase(s)
		m, merr := c.readManifest(slot)
		if merr != nil {
			if errors.Is(merr, ErrNoCheckpoint) {
				continue
			}
			return nil, 0, merr
		}
		cands = append(cands, cand{slot: slot, ckptManifest: m})
	}
	if len(cands) == 2 && cands[1].step > cands[0].step {
		cands[0], cands[1] = cands[1], cands[0]
	}
	var corrupt error
	for _, cd := range cands {
		buf, lerr := c.loadSlot(cd.slot, cd.ckptManifest)
		if lerr == nil {
			return buf, cd.step, nil
		}
		if errors.Is(lerr, ErrCheckpointCorrupt) {
			corrupt = lerr
			continue
		}
		return nil, 0, lerr
	}
	if corrupt != nil {
		return nil, 0, corrupt
	}
	return nil, 0, ErrNoCheckpoint
}

// loadSlot reads back one committed slot's sharded data and verifies it
// against the manifest's whole-state CRC (when the manifest carries
// one). The buffer is recycled on any failure.
func (c *Checkpointer) loadSlot(slot int64, m ckptManifest) ([]byte, error) {
	fs := c.fs
	nT := len(fs.targets)
	layout := ckptLayout{dataBase: slot + ckptManifestReserve, shardBytes: m.shardBytes, targets: nT}
	buf := fs.alloc(m.totalLen)
	segsOf := make([][]nvmetcp.Seg, nT)
	for s := 0; s < m.shards; s++ {
		lo := s * m.shardBytes
		hi := min(lo+m.shardBytes, m.totalLen)
		tgt, off := layout.place(s)
		segsOf[tgt] = append(segsOf[tgt], nvmetcp.Seg{Dst: buf[lo:hi], Off: off})
	}
	err := eachTarget(nT, func(t int) bool { return len(segsOf[t]) > 0 }, func(t int) error {
		segs := segsOf[t]
		cmds := make([]nvmetcp.Command, 0, (len(segs)+c.cfg.SegsPerCmd-1)/c.cfg.SegsPerCmd)
		for lo := 0; lo < len(segs); lo += c.cfg.SegsPerCmd {
			cmds = append(cmds, nvmetcp.Command{Op: nvmetcp.OpReadVec, Segs: segs[lo:min(lo+c.cfg.SegsPerCmd, len(segs))]})
		}
		if err := fs.targets[t].send(false, nil, nil, cmds...); err != nil {
			return fmt.Errorf("live: checkpoint read from target %d: %w", t, err)
		}
		return nil
	})
	if err != nil {
		fs.Recycle(buf)
		return nil, err
	}
	if m.hasCRC && crc32.Checksum(buf, ckptCRCTable) != m.dataCRC {
		fs.Recycle(buf)
		return nil, fmt.Errorf("%w: step %d slot at %d", ErrCheckpointCorrupt, m.step, slot)
	}
	return buf, nil
}
