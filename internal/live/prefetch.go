package live

import (
	"sync"
	"sync/atomic"
	"time"

	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/trace"
)

// Clairvoyant cross-epoch prefetch (Config.CrossEpochPrefetch).
//
// The seeded epoch order is deterministic: every rank can compute the
// *next* epoch's shuffled unit slice before the current epoch finishes
// (the property clairvoyant prefetching exploits — the access sequence
// is known arbitrarily far ahead). Once the current epoch's workers
// have fetched its last group, the queue pairs idle while the consumer
// drains the last window; the prefetcher fills that time, and whatever
// the training step leaves before the next Sequence, with coalesced
// reads for next-epoch units, parking the payloads in a bounded
// lookahead store. When the next epoch's fetchGroup finds its unit in
// the store it skips the wire — a warm epoch opens with near-zero poll
// time — and takes the parked buffers over (a unit parked per sample) or
// copies the parked range into cache chunks (a unit of small samples).
//
// A round runs on the epoch's own engine (FS.pump: the lookahead
// coalescer feeding Prefetchers workers that call fetchWire); only the
// landing of small-sample units differs, a pool buffer parked in the
// store instead of arena chunks. The store is bounded by
// Config.PrefetchBudgetBytes and best-effort throughout: the round is
// cut, before anything is dispatched, to the prefix of the predicted
// order that fits the budget, so its concurrent workers can never evict
// what it just fetched; a down
// target skips that node's units via the same circuit breaker the demand
// path uses, and a consumer running a different seed than predicted
// simply misses and pays the wire as before. Entries are consumed at
// most once (take removes them), so a store buffer is owned by exactly
// one side at a time.

// unitKey identifies a fetch unit by placement. The unit plan is a pure
// function of the dataset placement, so the same key is derived by the
// prefetcher (from the predicted epoch) and the consumer (from the
// actual epoch) independently.
type unitKey struct {
	node   uint16
	offset int64
	length int32
}

func (u *unit) key() unitKey { return unitKey{node: u.node, offset: u.offset, length: u.length} }

// pfEntry is one parked unit payload. Exactly one form is set: data
// holds the unit's raw byte range (a unit of small samples), samples
// holds per-record pool buffers parallel to the unit's sample list
// (large-sample, server-assembled or peer-served prefetch).
type pfEntry struct {
	data    []byte
	samples [][]byte
}

// size reports the entry's budget footprint.
func (e pfEntry) size() int64 {
	n := int64(len(e.data))
	for _, b := range e.samples {
		n += int64(len(b))
	}
	return n
}

// release recycles every buffer the entry owns.
func (e pfEntry) release(free func([]byte)) {
	if e.data != nil {
		free(e.data)
	}
	for _, b := range e.samples {
		if b != nil {
			free(b)
		}
	}
}

// prefetchStore is the bounded lookahead region: unit payloads fetched
// ahead of their epoch, keyed by placement identity. Eviction only
// reclaims stale leftovers (entries predicted for an epoch that never
// took them), when the next round begins: a round is cut to the budget
// before it parks anything, so it never needs room an entry holds.
type prefetchStore struct {
	budget int64
	pipe   *metrics.Pipeline
	free   func([]byte)

	mu      sync.Mutex
	entries map[unitKey]pfEntry
	order   []unitKey // insertion order; emptied when a round begins
	bytes   int64
}

func newPrefetchStore(budget int64, pipe *metrics.Pipeline, free func([]byte)) *prefetchStore {
	return &prefetchStore{
		budget:  budget,
		pipe:    pipe,
		free:    free,
		entries: make(map[unitKey]pfEntry),
	}
}

// put inserts a fetched payload, taking ownership of the entry's
// buffers. Entries already present keep the original; oversized inserts
// evict oldest-first until the budget holds.
func (s *prefetchStore) put(k unitKey, e pfEntry) {
	sz := e.size()
	if sz > s.budget {
		e.release(s.free) // can never fit: refuse before evicting anything
		return
	}
	s.mu.Lock()
	if _, dup := s.entries[k]; dup {
		s.mu.Unlock()
		e.release(s.free)
		return
	}
	for s.bytes+sz > s.budget && len(s.order) > 0 {
		s.evictLocked(s.order[0])
		s.order = s.order[1:]
	}
	if s.bytes+sz > s.budget {
		s.mu.Unlock()
		e.release(s.free)
		return
	}
	s.entries[k] = e
	s.order = append(s.order, k)
	s.bytes += sz
	s.mu.Unlock()
}

// evictLocked drops k's entry, if take has not consumed it already.
func (s *prefetchStore) evictLocked(k unitKey) {
	if e, ok := s.entries[k]; ok {
		delete(s.entries, k)
		s.bytes -= e.size()
		e.release(s.free)
		s.pipe.PrefetchEvictions.Add(1)
	}
}

// beginRound opens a lookahead round and returns how many bytes it may
// park: the whole budget. A round begins once its epoch has taken all
// it is going to take, so what is still resident was parked for an
// epoch that did not want it (a mispredicted seed or slice, or a
// consumer that did not wait for the round); nobody may ever take it,
// and it is evicted here lest it pin the budget for good. Sized before
// dispatch, the round's workers cannot push the store past the budget
// however they interleave.
func (s *prefetchStore) beginRound() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range s.order {
		s.evictLocked(k)
	}
	s.order = s.order[:0]
	return s.budget
}

// take removes and returns the entry for k; ok is false on miss. The
// caller owns the returned buffers.
func (s *prefetchStore) take(k unitKey) (pfEntry, bool) {
	s.mu.Lock()
	e, ok := s.entries[k]
	if ok {
		delete(s.entries, k)
		s.bytes -= e.size()
	}
	s.mu.Unlock()
	return e, ok
}

// residentBytes reports the store footprint (tests assert it never
// exceeds the budget).
func (s *prefetchStore) residentBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// drain frees every entry (Close).
func (s *prefetchStore) drain() {
	s.mu.Lock()
	for k, e := range s.entries {
		delete(s.entries, k)
		e.release(s.free)
	}
	s.order = nil
	s.bytes = 0
	s.mu.Unlock()
}

// maybePrefetch launches one background prefetch round for the
// predicted epoch (seed, rank, world) unless a round is already
// running. Called once the current epoch's groups are all fetched.
func (fs *FS) maybePrefetch(seed int64, rank, world int) {
	if fs.prefetch == nil || !fs.prefetchBusy.CompareAndSwap(false, true) {
		return
	}
	fs.prefetchWG.Add(1)
	go func() {
		defer fs.prefetchWG.Done()
		defer fs.prefetchBusy.Store(false)
		fs.runPrefetch(seed, rank, world)
	}()
}

// WaitPrefetch blocks until any in-flight prefetch round finishes —
// benchmarks and tests use it to draw a deterministic line between
// "epoch N done" and "epoch N+1 starts warm".
func (fs *FS) WaitPrefetch() { fs.prefetchWG.Wait() }

// runPrefetch is one lookahead round: the predicted epoch's unit slice
// for this rank, cut to the prefix the store has room for, goes through
// the same engine an epoch runs on, with park as the workers' fetch. It
// ends when the prefix is parked or the FS closes.
func (fs *FS) runPrefetch(seed int64, rank, world int) {
	room := fs.prefetch.beginRound()
	units := fs.epochUnits(seed, rank, world, 0, -1)
	n := 0
	for n < len(units) && int64(units[n].length) <= room {
		room -= int64(units[n].length) // no stored form of a unit is larger than its range
		n++
	}
	fs.pump(units[:n], fs.prefetchStop, fs.park)
}

// park is a lookahead round's side of the engine: bring one group of
// predicted units into the store. The cooperative peer cache is
// consulted first (cluster mounts only) — units fully resident on the
// owning rank park without touching the storage wire; only the residual
// misses go through fetchWire. Best-effort: breaker refusals and
// transport errors drop the group (the next epoch pays the wire for
// those units as usual).
func (fs *FS) park(g *fetchGroup) bool {
	select {
	case <-fs.prefetchStop:
		return false
	default:
	}
	misses := fs.prefetchFromPeers(g.units)
	if len(misses) > 0 && fs.fetchWire(misses, true) == nil {
		for _, u := range misses {
			fs.prefetch.put(u.key(), pfEntry{data: u.raw, samples: u.assembled})
		}
	}
	return true
}

// prefetchFromPeers tries to satisfy predicted units from the
// cooperative peer sample cache before the storage wire (cluster
// mounts only). All-or-nothing per unit: a unit parks only when the
// owning rank answers every one of its samples — partial pulls are
// recycled and the unit stays a miss, so a store hit is always a
// complete unit. Peer hits, bytes, and fallbacks land on the same
// counters as the demand path. Skipped entirely when the epoch runs a
// lossy server transform (peers hold raw records). Returns the
// residual misses.
func (fs *FS) prefetchFromPeers(group []*unit) []*unit {
	if fs.peers == nil {
		return group
	}
	if x := fs.assemblyTransform(); fs.cfg.ServerAssembly &&
		x != nvmetcp.TransformNone && x != nvmetcp.TransformCRC32C {
		return group
	}
	misses := group[:0:0]
	for _, u := range group {
		owner := int(u.node)
		if owner == fs.rank || owner >= len(fs.peers.clients) || fs.peers.clients[owner] == nil {
			misses = append(misses, u)
			continue
		}
		samples := make([][]byte, len(u.samples))
		ok := true
		var sz int64
		for si, pl := range u.samples {
			buf := fs.peerFetch(owner, pl.Sample, int(pl.Len))
			if buf == nil {
				ok = false
				break
			}
			samples[si] = buf
			sz += int64(len(buf))
		}
		if !ok {
			for _, b := range samples {
				if b != nil {
					fs.Recycle(b)
				}
			}
			misses = append(misses, u)
			continue
		}
		fs.prefetch.put(u.key(), pfEntry{samples: samples})
		fs.pipe.PrefetchedUnits.Add(1)
		fs.pipe.PrefetchedBytes.Add(sz)
	}
	return misses
}

// serveFromStore satisfies as many of g's units as the lookahead store
// holds. A raw-range hit copies straight from the stored payload into
// freshly allocated cache chunks (prep-stage work, no wire); a
// per-sample hit (large-sample, server-assembled or peer-served
// prefetch) hands the record buffers to the unit directly — no chunks,
// no copy stage.
// Returns the units that missed and must be fetched. Called by
// fetchGroup.
func (ep *Epoch) serveFromStore(g *fetchGroup) []*unit {
	fs := ep.fs
	cs := fs.cfg.ChunkSize
	misses := g.units[:0:0]
	var hit bool
	prep := time.Now()
	for _, u := range g.units {
		e, ok := fs.prefetch.take(u.key())
		if !ok {
			misses = append(misses, u)
			continue
		}
		if e.samples != nil {
			if len(e.samples) == len(u.samples) {
				u.assembled = e.samples
			} else {
				// Predicted sample split diverged from the actual
				// epoch's (shouldn't happen — the plan is a pure
				// function of placement); drop rather than mis-emit.
				e.release(fs.Recycle)
				misses = append(misses, u)
				continue
			}
		} else {
			nc := u.chunkCount(cs)
			u.chunks = fs.arena.AllocN(nc)
			for ci := 0; ci < nc; ci++ {
				copy(u.chunks[ci].Bytes(), e.data[ci*cs:min((ci+1)*cs, int(u.length))])
			}
			fs.Recycle(e.data)
		}
		fs.pipe.PrefetchHitUnits.Add(1)
		fs.pipe.PrefetchHitBytes.Add(int64(u.length))
		fs.cfg.Trace.Record(trace.KindComplete, u.seq, u.node, int(u.length))
		hit = true
	}
	if hit {
		fs.pipe.ObservePrep(time.Since(prep))
	}
	return misses
}

// prefetchState is the FS-side bookkeeping for the cross-epoch
// prefetcher, embedded in FS so single-node and cluster mounts share
// the wiring.
type prefetchState struct {
	prefetch     *prefetchStore // nil unless CrossEpochPrefetch is on
	prefetchStop chan struct{}  // closed by Close; aborts in-flight rounds
	prefetchBusy atomic.Bool    // at most one round in flight
	prefetchWG   sync.WaitGroup
}
