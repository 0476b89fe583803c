package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Pipeline aggregates the per-stage counters of the live read pipeline —
// the prep→post→poll→copy decomposition of the paper's §III-C backend,
// observed on the Go client. One instance is shared by every prefetcher
// and the emission path of a mount, so a single snapshot describes the
// whole pipeline. All fields are safe for concurrent use.
type Pipeline struct {
	PrepNanos atomic.Int64 // building requests: chunk alloc + segment setup
	PostNanos atomic.Int64 // submitting commands onto queue pairs
	PollNanos atomic.Int64 // waiting for completions
	CopyNanos atomic.Int64 // copying samples out of cache chunks

	WireReads    atomic.Int64 // read commands put on the wire
	WireSegments atomic.Int64 // chunk segments carried by those commands
	WireBytes    atomic.Int64 // payload bytes fetched

	CoalescedUnits atomic.Int64 // plan units merged into a preceding wire read

	PoolHits   atomic.Int64 // sample buffers served from the pool
	PoolMisses atomic.Int64 // sample buffers freshly allocated

	CacheHits      atomic.Int64 // ReadSample served from the V-bit cache
	CacheMisses    atomic.Int64 // ReadSample that went to the wire
	CacheEvictions atomic.Int64 // V-bit cache CLOCK evictions

	// Cross-epoch clairvoyant prefetch (live.Config.CrossEpochPrefetch):
	// next-epoch units fetched into the lookahead store during the
	// current epoch's poll gaps, and epoch units later served from it
	// without touching the wire.
	PrefetchedUnits   atomic.Int64 // units fetched ahead into the lookahead store
	PrefetchedBytes   atomic.Int64 // bytes fetched ahead into the lookahead store
	PrefetchHitUnits  atomic.Int64 // epoch units served from the lookahead store
	PrefetchHitBytes  atomic.Int64 // epoch bytes served from the lookahead store
	PrefetchEvictions atomic.Int64 // lookahead entries evicted before use

	// Cooperative peer cache (live.Config.PeerCache): the ReadSample miss
	// path's hit/peer/origin breakdown. CacheHits above is the "hit" leg;
	// these counters split the miss leg between peers and origin targets.
	PeerHits      atomic.Int64 // samples served by a peer's cache
	PeerBytes     atomic.Int64 // bytes served by peers
	PeerFallbacks atomic.Int64 // peer fetches that failed over to origin
	PeerServed    atomic.Int64 // samples this rank served to its peers
	OriginReads   atomic.Int64 // ReadSample misses served from the origin target
	OriginBytes   atomic.Int64 // bytes ReadSample pulled from origin targets

	// Near-data sample assembly (live.Config.ServerAssembly): fetch
	// groups posted as opReadSamples offload commands whose responses
	// carry exactly the samples' post-transform bytes, skipping chunk
	// staging and the client copy stage.
	OffloadCmds       atomic.Int64 // opReadSamples commands posted
	OffloadSamples    atomic.Int64 // samples assembled target-side
	OffloadDowngrades atomic.Int64 // targets downgraded to opReadVec (old opcode set)

	// Checkpoint write path (live.Checkpointer): sharded state streamed
	// through gathered writes with a durability barrier per save.
	CkptSaves      atomic.Int64 // Save calls completed
	CkptBytes      atomic.Int64 // checkpoint payload bytes shipped
	CkptWriteCmds  atomic.Int64 // write commands posted (vec or per-extent)
	CkptWriteSegs  atomic.Int64 // extents carried by those commands
	CkptFlushes    atomic.Int64 // per-target durability barriers issued
	CkptDowngrades atomic.Int64 // targets downgraded to per-extent opWrite
	CkptNanos      atomic.Int64 // wall time inside Save

	// Hist, when non-nil, additionally records every stage observation
	// into per-stage latency histograms. Left nil (the default), the
	// pipeline pays only the atomic counter adds above.
	Hist *PipelineHist
}

// PipelineHist holds the per-stage latency distributions of the client
// pipeline plus the synchronous ReadSample path. Enabled via
// live.Config.StageHistograms.
type PipelineHist struct {
	Prep Hist // building requests: chunk alloc + segment setup, per fetch group
	Post Hist // submitting commands onto queue pairs, per fetch group
	Poll Hist // waiting for completions, per fetch group
	Copy Hist // one stretch of consecutive sample copies out of cache chunks (at least one per NextBatch call that copies)
	Read Hist // whole synchronous ReadSample calls (hit or miss)
	Ckpt Hist // one checkpoint write command, post to completion
}

// Snapshot copies all stage histograms.
func (h *PipelineHist) Snapshot() *PipelineHistSnapshot {
	return &PipelineHistSnapshot{
		Prep: h.Prep.Snapshot(),
		Post: h.Post.Snapshot(),
		Poll: h.Poll.Snapshot(),
		Copy: h.Copy.Snapshot(),
		Read: h.Read.Snapshot(),
		Ckpt: h.Ckpt.Snapshot(),
	}
}

// PipelineHistSnapshot is a plain-value copy of PipelineHist.
type PipelineHistSnapshot struct {
	Prep, Post, Poll, Copy, Read, Ckpt HistSnapshot
}

// Merge combines per-stage distributions across clients or ranks.
func (s *PipelineHistSnapshot) Merge(o *PipelineHistSnapshot) *PipelineHistSnapshot {
	if s == nil {
		return o
	}
	if o == nil {
		return s
	}
	return &PipelineHistSnapshot{
		Prep: s.Prep.Merge(o.Prep),
		Post: s.Post.Merge(o.Post),
		Poll: s.Poll.Merge(o.Poll),
		Copy: s.Copy.Merge(o.Copy),
		Read: s.Read.Merge(o.Read),
		Ckpt: s.Ckpt.Merge(o.Ckpt),
	}
}

// AddStage is a helper for timing a stage: it adds the elapsed time since
// start to the given stage counter.
func AddStage(c *atomic.Int64, start time.Time) { c.Add(int64(time.Since(start))) }

// ObservePrep accounts one prep-stage duration (counter + histogram).
func (p *Pipeline) ObservePrep(d time.Duration) {
	p.PrepNanos.Add(int64(d))
	if p.Hist != nil {
		p.Hist.Prep.Observe(d)
	}
}

// ObservePost accounts one post-stage duration.
func (p *Pipeline) ObservePost(d time.Duration) {
	p.PostNanos.Add(int64(d))
	if p.Hist != nil {
		p.Hist.Post.Observe(d)
	}
}

// ObservePoll accounts one poll-stage duration.
func (p *Pipeline) ObservePoll(d time.Duration) {
	p.PollNanos.Add(int64(d))
	if p.Hist != nil {
		p.Hist.Poll.Observe(d)
	}
}

// ObserveCopy accounts one copy-stage duration.
func (p *Pipeline) ObserveCopy(d time.Duration) {
	p.CopyNanos.Add(int64(d))
	if p.Hist != nil {
		p.Hist.Copy.Observe(d)
	}
}

// ObserveRead records one synchronous ReadSample latency. Histogram-only:
// callers gate the surrounding clock reads on Hist being enabled.
func (p *Pipeline) ObserveRead(d time.Duration) {
	if p.Hist != nil {
		p.Hist.Read.Observe(d)
	}
}

// ObserveCkptWrite accounts one checkpoint write command: its byte and
// segment payload plus its post-to-completion latency.
func (p *Pipeline) ObserveCkptWrite(bytes, segs int64, d time.Duration) {
	p.CkptBytes.Add(bytes)
	p.CkptWriteCmds.Add(1)
	p.CkptWriteSegs.Add(segs)
	if p.Hist != nil {
		p.Hist.Ckpt.Observe(d)
	}
}

// Snapshot returns a point-in-time copy for reporting. When stage
// histograms are enabled the snapshot carries them in Stages.
func (p *Pipeline) Snapshot() PipelineSnapshot {
	var stages *PipelineHistSnapshot
	if p.Hist != nil {
		stages = p.Hist.Snapshot()
	}
	return PipelineSnapshot{
		Stages:            stages,
		PrepNanos:         p.PrepNanos.Load(),
		PostNanos:         p.PostNanos.Load(),
		PollNanos:         p.PollNanos.Load(),
		CopyNanos:         p.CopyNanos.Load(),
		WireReads:         p.WireReads.Load(),
		WireSegments:      p.WireSegments.Load(),
		WireBytes:         p.WireBytes.Load(),
		CoalescedUnits:    p.CoalescedUnits.Load(),
		PoolHits:          p.PoolHits.Load(),
		PoolMisses:        p.PoolMisses.Load(),
		CacheHits:         p.CacheHits.Load(),
		CacheMisses:       p.CacheMisses.Load(),
		CacheEvictions:    p.CacheEvictions.Load(),
		PrefetchedUnits:   p.PrefetchedUnits.Load(),
		PrefetchedBytes:   p.PrefetchedBytes.Load(),
		PrefetchHitUnits:  p.PrefetchHitUnits.Load(),
		PrefetchHitBytes:  p.PrefetchHitBytes.Load(),
		PrefetchEvictions: p.PrefetchEvictions.Load(),
		PeerHits:          p.PeerHits.Load(),
		PeerBytes:         p.PeerBytes.Load(),
		PeerFallbacks:     p.PeerFallbacks.Load(),
		PeerServed:        p.PeerServed.Load(),
		OriginReads:       p.OriginReads.Load(),
		OriginBytes:       p.OriginBytes.Load(),
		OffloadCmds:       p.OffloadCmds.Load(),
		OffloadSamples:    p.OffloadSamples.Load(),
		OffloadDowngrades: p.OffloadDowngrades.Load(),
		CkptSaves:         p.CkptSaves.Load(),
		CkptBytes:         p.CkptBytes.Load(),
		CkptWriteCmds:     p.CkptWriteCmds.Load(),
		CkptWriteSegs:     p.CkptWriteSegs.Load(),
		CkptFlushes:       p.CkptFlushes.Load(),
		CkptDowngrades:    p.CkptDowngrades.Load(),
		CkptNanos:         p.CkptNanos.Load(),
	}
}

// PipelineSnapshot is a plain-value copy of Pipeline counters. Stages is
// non-nil only when stage histograms were enabled.
//
// The frozen benchmark (bench/stats.go, addInts) walks this struct by
// reflection and calls SetInt on every int64 field, recursing into
// struct-valued fields: an unexported int64, or a nested struct holding
// one, added here panics every workload. Keep every int64 exported.
type PipelineSnapshot struct {
	Stages            *PipelineHistSnapshot
	PrepNanos         int64
	PostNanos         int64
	PollNanos         int64
	CopyNanos         int64
	WireReads         int64
	WireSegments      int64
	WireBytes         int64
	CoalescedUnits    int64
	PoolHits          int64
	PoolMisses        int64
	CacheHits         int64
	CacheMisses       int64
	CacheEvictions    int64
	PrefetchedUnits   int64
	PrefetchedBytes   int64
	PrefetchHitUnits  int64
	PrefetchHitBytes  int64
	PrefetchEvictions int64
	PeerHits          int64
	PeerBytes         int64
	PeerFallbacks     int64
	PeerServed        int64
	OriginReads       int64
	OriginBytes       int64
	OffloadCmds       int64
	OffloadSamples    int64
	OffloadDowngrades int64
	CkptSaves         int64
	CkptBytes         int64
	CkptWriteCmds     int64
	CkptWriteSegs     int64
	CkptFlushes       int64
	CkptDowngrades    int64
	CkptNanos         int64
}

// CoalesceRatio reports chunk segments per wire read — 1.0 means no
// coalescing, higher means adjacent reads were merged.
func (s PipelineSnapshot) CoalesceRatio() float64 {
	if s.WireReads == 0 {
		return 0
	}
	return float64(s.WireSegments) / float64(s.WireReads)
}

// PoolHitRate reports the fraction of sample buffers served from the
// pool.
func (s PipelineSnapshot) PoolHitRate() float64 {
	if s.PoolHits+s.PoolMisses == 0 {
		return 0
	}
	return float64(s.PoolHits) / float64(s.PoolHits+s.PoolMisses)
}

// PrefetchCoverage reports the fraction of fetched epoch units served
// from the cross-epoch lookahead store instead of the wire.
func (s PipelineSnapshot) PrefetchCoverage() float64 {
	fetched := s.PrefetchHitUnits + s.WireReads + s.CoalescedUnits
	if fetched == 0 {
		return 0
	}
	return float64(s.PrefetchHitUnits) / float64(fetched)
}

// String renders the snapshot as a stats line: per-stage time, then the
// wire, pool, cache, prefetch and peer efficiency figures.
func (s PipelineSnapshot) String() string {
	line := fmt.Sprintf(
		"prep=%v post=%v poll=%v copy=%v wire_reads=%d segments=%d bytes=%d coalesce=%.2fx merged_units=%d pool_hit=%.0f%% cache hit/miss/evict=%d/%d/%d",
		time.Duration(s.PrepNanos), time.Duration(s.PostNanos), time.Duration(s.PollNanos), time.Duration(s.CopyNanos),
		s.WireReads, s.WireSegments, s.WireBytes, s.CoalesceRatio(), s.CoalescedUnits,
		100*s.PoolHitRate(), s.CacheHits, s.CacheMisses, s.CacheEvictions)
	if s.PrefetchedUnits+s.PrefetchHitUnits > 0 {
		line += fmt.Sprintf(" prefetch ahead/hit/evict=%d/%d/%d coverage=%.0f%%",
			s.PrefetchedUnits, s.PrefetchHitUnits, s.PrefetchEvictions, 100*s.PrefetchCoverage())
	}
	if s.PeerHits+s.PeerFallbacks+s.PeerServed+s.OriginReads > 0 {
		line += fmt.Sprintf(" reads local/peer/origin=%d/%d/%d peer_fallbacks=%d peer_served=%d origin_bytes=%d",
			s.CacheHits, s.PeerHits, s.OriginReads, s.PeerFallbacks, s.PeerServed, s.OriginBytes)
	}
	if s.OffloadCmds+s.OffloadDowngrades > 0 {
		line += fmt.Sprintf(" offload cmds/samples=%d/%d downgrades=%d",
			s.OffloadCmds, s.OffloadSamples, s.OffloadDowngrades)
	}
	if s.CkptSaves > 0 {
		line += fmt.Sprintf(" ckpt saves=%d bytes=%d cmds/segs=%d/%d flushes=%d downgrades=%d time=%v",
			s.CkptSaves, s.CkptBytes, s.CkptWriteCmds, s.CkptWriteSegs, s.CkptFlushes,
			s.CkptDowngrades, time.Duration(s.CkptNanos))
	}
	return line
}
