package live

// The client's write side. dlfs_mount (single-node and cluster) and the
// Checkpointer move bytes to a target the same way: cut the work into
// batches, keep a small bounded number of them in flight across the
// target's queue pairs, give each batch's buffers back only when its
// command has completed, stop at the first error. bulkWriter is that
// loop; load is the data half of a mount built on it.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dlfs/internal/directory"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/plan"
	"dlfs/internal/sample"
)

const (
	// stagingBytes is how much of a shard a mount gathers before it ships
	// it as one write: large enough that the per-command costs (a round
	// trip, two goroutine wakes, the target's queue and pool) vanish
	// against the copy, small enough that a handful in flight per target
	// stays a few MiB.
	stagingBytes = 1 << 20

	// writeWindow is how many write commands a bulkWriter keeps in flight
	// on its target: both of a target's default queue pairs sending while
	// the target applies what already arrived, with one to spare.
	writeWindow = 4

	// allNodes tells load that the mount owns every shard.
	allNodes = -1
)

// writeBatch is one write command's worth of work: segments bound for
// one target, and what to do once their source buffers are free.
type writeBatch struct {
	segs    []nvmetcp.WSeg
	release func() // nil when the caller keeps the buffers anyway
}

// bulkWriter ships write batches to one target, at most writeWindow at
// a time. After the first failure the remaining batches are released
// unsent.
type bulkWriter struct {
	tg   *target
	pipe *metrics.Pipeline // checkpoint write accounting; nil for a mount's upload
	work chan writeBatch
	wg   sync.WaitGroup

	mu  sync.Mutex
	err error
}

func newBulkWriter(tg *target, pipe *metrics.Pipeline) *bulkWriter {
	bw := &bulkWriter{tg: tg, pipe: pipe, work: make(chan writeBatch)}
	for w := 0; w < writeWindow; w++ {
		bw.wg.Add(1)
		go bw.worker()
	}
	return bw
}

// post hands a batch to the next free worker, blocking while writeWindow
// batches are in flight, and reports whether the writer is still healthy
// (a caller generating content can stop early when it is not). The
// source buffers belong to the writer until release runs. That is not
// when the bytes are on the wire but when the command's Wait has
// returned: a reconnecting queue pair recovers a lost connection by
// sending the command again from those same buffers (nvmetcp.RePending),
// so a buffer refilled any earlier is silent corruption after one retry.
func (bw *bulkWriter) post(segs []nvmetcp.WSeg, release func()) bool {
	bw.work <- writeBatch{segs: segs, release: release}
	return bw.firstErr() == nil
}

// wait returns once every posted batch has completed or been released,
// with the first error. The writer is spent afterwards.
func (bw *bulkWriter) wait() error {
	close(bw.work)
	bw.wg.Wait()
	return bw.err
}

func (bw *bulkWriter) firstErr() error {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	return bw.err
}

func (bw *bulkWriter) worker() {
	defer bw.wg.Done()
	for b := range bw.work {
		if bw.firstErr() == nil {
			if err := bw.send(b.segs); err != nil {
				bw.mu.Lock()
				if bw.err == nil {
					bw.err = err
				}
				bw.mu.Unlock()
			}
		}
		if b.release != nil {
			b.release()
		}
	}
}

// send ships one batch and waits for it: several segments as one
// gathered opWriteVec where the target speaks it, otherwise one pipelined
// opWrite per segment. A target that turns opWriteVec away (an
// old-opcode build in a rolling upgrade; target.send latches it) gets
// the batch again as plain writes; fixed-offset writes are idempotent,
// so nothing is lost by it.
//
// A batch the tenant's quota turned away is backpressure from a healthy
// target, not a failure: once the queue pair's own retry budget is spent
// against the quota the batch goes again after the target's hint, for as
// long as the target keeps answering. Every admitted command is
// progress, so a mount under a quota is slow, never stuck, and the
// breaker never hears of it.
func (bw *bulkWriter) send(segs []nvmetcp.WSeg) error {
	tg := bw.tg
	for {
		start := time.Now()
		cmds := []nvmetcp.Command{{Op: nvmetcp.OpWriteVec, WSegs: segs}}
		if len(segs) == 1 || tg.noVec.Load() {
			cmds = make([]nvmetcp.Command, len(segs))
			for i, s := range segs {
				cmds[i] = nvmetcp.Command{Op: nvmetcp.OpWrite, Buf: s.Src, Off: s.Off}
			}
		}
		err := tg.send(false, nil, nil, cmds...)
		var te *nvmetcp.ThrottledError
		switch {
		case err == nil && cmds[0].Op == nvmetcp.OpWriteVec:
			bw.observe(segs, start)
			return nil
		case err == nil:
			for i := range segs {
				bw.observe(segs[i:i+1], start)
			}
			return nil
		case errors.As(err, &te):
			time.Sleep(max(te.RetryAfter, time.Millisecond))
		case err == errLatched && bw.pipe != nil:
			bw.pipe.CkptDowngrades.Add(1)
		case !errors.Is(err, errLegacy):
			return err
		}
	}
}

// observe books one completed write command, carrying segs, on the
// checkpoint counters.
func (bw *bulkWriter) observe(segs []nvmetcp.WSeg, start time.Time) {
	if bw.pipe == nil {
		return
	}
	var bytes int64
	for _, s := range segs {
		bytes += int64(len(s.Src))
	}
	bw.pipe.ObserveCkptWrite(bytes, int64(len(segs)), time.Since(start))
}

// place is the pure half of dlfs_mount: every sample gets its key, its
// home node and its offset there, with no I/O. Samples are appended to
// their home node in index order, so node n's shard is the one
// contiguous byte range [0, shardLen[n]) and index order is offset
// order on every node. Every rank of a cluster mount computes the same
// placement. The keys stay in fs.keys: the indexing pass, the cluster
// mount's cross-check and every V-bit update look entries up by them.
func (fs *FS) place() error {
	n, ds := len(fs.targets), fs.ds
	fs.keys = make([]uint64, ds.Len())
	fs.shardLen = make([]int64, n)
	fs.placed = make([]plan.Placed, ds.Len())
	fs.nodeOf = make([]uint16, ds.Len())
	fs.keyIdx = make(map[uint64]int, ds.Len())
	for i := range ds.Samples {
		key := ds.Samples[i].Key()
		if _, dup := fs.keyIdx[key]; dup {
			return fmt.Errorf("live: key collision on sample %d", i)
		}
		fs.keyIdx[key] = i
		nid := directory.HomeNode(key, n)
		size := ds.Samples[i].Size
		fs.keys[i] = key
		fs.placed[i] = plan.Placed{Sample: i, Offset: fs.shardLen[nid], Len: int32(size)}
		fs.nodeOf[i] = nid
		fs.shardLen[nid] += int64(size)
	}
	return nil
}

// load is the data half of dlfs_mount: place the dataset, then stream
// the shards this mount owns (own is a node, or allNodes) to their
// targets, one upload goroutine per target, and build those nodes'
// directory partitions beside the uploads. Partitions of nodes the
// mount does not own stay nil.
func (fs *FS) load(own int) ([]*directory.Partition, error) {
	err := fs.place()
	if err != nil {
		return nil, err
	}
	owned := func(nid int) bool { return own == allNodes || nid == own }
	errs := make([]error, len(fs.targets))
	var wg sync.WaitGroup
	for nid := range fs.targets {
		if owned(nid) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[nid] = fs.uploadShard(nid)
			}()
		}
	}
	parts := make([]*directory.Partition, len(fs.targets))
	for nid := range parts {
		if owned(nid) {
			parts[nid] = directory.NewPartition(uint16(nid))
		}
	}
	for i := 0; i < len(fs.placed) && err == nil; i++ {
		nid, pl := fs.nodeOf[i], fs.placed[i]
		if parts[nid] == nil {
			continue
		}
		var e sample.Entry
		if e, err = sample.NewEntry(nid, fs.keys[i], pl.Offset, pl.Len); err == nil {
			err = parts[nid].Add(e)
		}
	}
	wg.Wait() // also when indexing failed: the uploaders hold the connections
	for _, uerr := range errs {
		if err == nil {
			err = uerr
		}
	}
	return parts, err
}

// uploadShard streams node nid's shard to its target. The shard is one
// contiguous range in index order (see place), so content is generated
// straight into staging buffers and the stream is cut every stagingBytes:
// each cut ships as a single write, a command per MiB and not per sample,
// and the sample that straddles the cut goes on at the head of the next
// buffer. A sample larger than stagingBytes ships on its own. Buffers
// cycle through a ring, so generation, the socket copies and the target's
// ingest overlap; a buffer re-enters the ring only from its batch's
// release (see bulkWriter.post). The upload ends with the target's
// durability barrier.
func (fs *FS) uploadShard(nid int) error {
	tg := fs.targets[nid]
	// A buffer is cut once it holds stagingBytes, so it overshoots by less
	// than the largest sample that still goes through staging.
	var over int32
	for i, pl := range fs.placed {
		if int(fs.nodeOf[i]) == nid && pl.Len <= stagingBytes {
			over = max(over, pl.Len)
		}
	}
	bufCap := int(min(stagingBytes+int64(over), fs.shardLen[nid]))

	bw := newBulkWriter(tg, nil)
	// One buffer per write in flight, the one being filled, and the one a
	// cut carries its straddler into.
	ring := make(chan []byte, writeWindow+2)
	made := 0
	take := func() []byte {
		if made < cap(ring) {
			made++
			return make([]byte, 0, bufCap)
		}
		return <-ring
	}
	var buf []byte // staged bytes, bound for offset base
	var base int64
	// ship posts the first n staged bytes as one write; what is staged
	// beyond them moves to a fresh buffer.
	ship := func(n int) bool {
		if n == 0 {
			return true
		}
		b := buf
		if buf = nil; n < len(b) {
			buf = append(take(), b[n:]...)
		}
		ok := bw.post([]nvmetcp.WSeg{{Src: b[:n], Off: base}}, func() { ring <- b[:0] })
		base += int64(n)
		return ok
	}
	for i, pl := range fs.placed {
		if int(fs.nodeOf[i]) != nid {
			continue
		}
		n := int(pl.Len)
		if n > stagingBytes {
			big := make([]byte, n)
			fs.ds.FillContent(i, big)
			if !ship(len(buf)) || !bw.post([]nvmetcp.WSeg{{Src: big, Off: pl.Offset}}, nil) {
				break
			}
			continue
		}
		if buf == nil {
			buf, base = take(), pl.Offset
		}
		fs.ds.FillContent(i, buf[len(buf):len(buf)+n])
		if buf = buf[:len(buf)+n]; len(buf) >= stagingBytes && !ship(stagingBytes) {
			break
		}
	}
	ship(len(buf))
	err := bw.wait()
	if err == nil {
		_, err = tg.flush()
	}
	if err != nil {
		return fmt.Errorf("live: uploading shard %d to %s: %w", nid, tg.addr, err)
	}
	return nil
}
