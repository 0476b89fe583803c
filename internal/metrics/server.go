package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Server aggregates the per-stage counters of the target-side RPQ/SCQ
// serving engine — the storage-node mirror of Pipeline. Commands wait on
// the request-posting queue, are serviced by a worker, and their
// completions are coalesced by a per-connection flusher into vectored
// socket writes; each stage is timed here. One instance lives in each
// nvmetcp.Target. All fields are safe for concurrent use.
type Server struct {
	QueueWaitNanos atomic.Int64 // RPQ residency: enqueue to worker pickup
	ServiceNanos   atomic.Int64 // command execution inside a worker
	FlushNanos     atomic.Int64 // building + writing completion batches

	Flushes     atomic.Int64 // writev calls issued by flushers
	FlushedCmds atomic.Int64 // completions carried by those writevs

	ZeroCopyBytes atomic.Int64 // read payload served as store views
	StagedBytes   atomic.Int64 // read payload copied through the pool
	Restaged      atomic.Int64 // views invalidated by a write epoch change

	// Near-data sample assembly (opReadSamples).
	SampleCmds       atomic.Int64 // offload commands served
	AssembledSamples atomic.Int64 // sample records assembled by them
	AssembledBytes   atomic.Int64 // post-transform record bytes flushed
	TransformNanos   atomic.Int64 // time inside the per-sample transform stage

	// The target's crc32c memo: a hit is a record whose trailer was
	// computed since the store was last written and is sent again, a
	// miss one checksummed where it lies.
	ChecksumMemoHits   atomic.Int64
	ChecksumMemoMisses atomic.Int64

	// Write path (opWrite / opWriteVec / opFlush): checkpoint ingest.
	WriteBytes     atomic.Int64 // payload bytes landed in the store
	VecWriteCmds   atomic.Int64 // gathered-write commands served
	VecWriteSegs   atomic.Int64 // extents carried by those commands
	FlushCmds      atomic.Int64 // durability barriers served
	FlushWaitNanos atomic.Int64 // time barriers waited for prior writes
	AdoptedExtents atomic.Int64 // extents landed zero-copy by buffer adoption

	// Hist, when non-nil, additionally records per-stage latency
	// distributions. Left nil (the default), the engine pays only the
	// atomic counter adds above.
	Hist *ServerHist
}

// ServerHist holds the per-stage latency distributions of the target
// engine. Enabled via nvmetcp.Config.StageHistograms.
type ServerHist struct {
	QueueWait Hist // per command: RPQ enqueue to worker pickup
	Service   Hist // per command: execution inside a worker
	Flush     Hist // per writev: building + writing one completion batch
	Write     Hist // per write command: store landing time
}

// Snapshot copies all stage histograms.
func (h *ServerHist) Snapshot() *ServerHistSnapshot {
	return &ServerHistSnapshot{
		QueueWait: h.QueueWait.Snapshot(),
		Service:   h.Service.Snapshot(),
		Flush:     h.Flush.Snapshot(),
		Write:     h.Write.Snapshot(),
	}
}

// ServerHistSnapshot is a plain-value copy of ServerHist.
type ServerHistSnapshot struct {
	QueueWait, Service, Flush, Write HistSnapshot
}

// Merge combines per-stage distributions across targets.
func (s *ServerHistSnapshot) Merge(o *ServerHistSnapshot) *ServerHistSnapshot {
	if s == nil {
		return o
	}
	if o == nil {
		return s
	}
	return &ServerHistSnapshot{
		QueueWait: s.QueueWait.Merge(o.QueueWait),
		Service:   s.Service.Merge(o.Service),
		Flush:     s.Flush.Merge(o.Flush),
		Write:     s.Write.Merge(o.Write),
	}
}

// ObserveQueueWait accounts one command's RPQ residency.
func (s *Server) ObserveQueueWait(d time.Duration) {
	s.QueueWaitNanos.Add(int64(d))
	if s.Hist != nil {
		s.Hist.QueueWait.Observe(d)
	}
}

// ObserveService accounts one command's execution time.
func (s *Server) ObserveService(d time.Duration) {
	s.ServiceNanos.Add(int64(d))
	if s.Hist != nil {
		s.Hist.Service.Observe(d)
	}
}

// ObserveFlush accounts one completion-batch flush.
func (s *Server) ObserveFlush(d time.Duration) {
	s.FlushNanos.Add(int64(d))
	if s.Hist != nil {
		s.Hist.Flush.Observe(d)
	}
}

// ObserveTransform accounts time spent in one command's per-sample
// transform stage (zero for TransformNone).
func (s *Server) ObserveTransform(d time.Duration) {
	if d > 0 {
		s.TransformNanos.Add(int64(d))
	}
}

// ObserveWrite accounts one write command's store landing: payload bytes
// plus the time spent inside the store write.
func (s *Server) ObserveWrite(bytes int64, d time.Duration) {
	s.WriteBytes.Add(bytes)
	if s.Hist != nil {
		s.Hist.Write.Observe(d)
	}
}

// ObserveFlushWait accounts the time one durability barrier spent
// waiting for the connection's prior writes to land before syncing.
func (s *Server) ObserveFlushWait(d time.Duration) {
	s.FlushWaitNanos.Add(int64(d))
}

// Snapshot returns a point-in-time copy for reporting. When stage
// histograms are enabled the snapshot carries them in Stages.
func (s *Server) Snapshot() ServerSnapshot {
	var stages *ServerHistSnapshot
	if s.Hist != nil {
		stages = s.Hist.Snapshot()
	}
	return ServerSnapshot{
		Stages:         stages,
		QueueWaitNanos: s.QueueWaitNanos.Load(),
		ServiceNanos:   s.ServiceNanos.Load(),
		FlushNanos:     s.FlushNanos.Load(),
		Flushes:        s.Flushes.Load(),
		FlushedCmds:    s.FlushedCmds.Load(),
		ZeroCopyBytes:  s.ZeroCopyBytes.Load(),
		StagedBytes:    s.StagedBytes.Load(),
		Restaged:       s.Restaged.Load(),

		SampleCmds:       s.SampleCmds.Load(),
		AssembledSamples: s.AssembledSamples.Load(),
		AssembledBytes:   s.AssembledBytes.Load(),
		TransformNanos:   s.TransformNanos.Load(),

		ChecksumMemoHits:   s.ChecksumMemoHits.Load(),
		ChecksumMemoMisses: s.ChecksumMemoMisses.Load(),

		WriteBytes:     s.WriteBytes.Load(),
		VecWriteCmds:   s.VecWriteCmds.Load(),
		VecWriteSegs:   s.VecWriteSegs.Load(),
		FlushCmds:      s.FlushCmds.Load(),
		FlushWaitNanos: s.FlushWaitNanos.Load(),
		AdoptedExtents: s.AdoptedExtents.Load(),
	}
}

// ServerSnapshot is a plain-value copy of Server counters. Stages is
// non-nil only when stage histograms were enabled.
//
// bench/stats.go sums it by reflection (see PipelineSnapshot): every
// int64 field, nested ones included, must stay exported.
type ServerSnapshot struct {
	Stages         *ServerHistSnapshot
	QueueWaitNanos int64
	ServiceNanos   int64
	FlushNanos     int64
	Flushes        int64
	FlushedCmds    int64
	ZeroCopyBytes  int64
	StagedBytes    int64
	Restaged       int64

	SampleCmds       int64
	AssembledSamples int64
	AssembledBytes   int64
	TransformNanos   int64

	ChecksumMemoHits   int64
	ChecksumMemoMisses int64

	WriteBytes     int64
	VecWriteCmds   int64
	VecWriteSegs   int64
	FlushCmds      int64
	FlushWaitNanos int64
	AdoptedExtents int64
}

// FlushBatch reports completions per writev — 1.0 means no batching,
// higher means syscalls were amortised across queued completions.
func (s ServerSnapshot) FlushBatch() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.FlushedCmds) / float64(s.Flushes)
}

// ChecksumMemoHitShare reports the fraction of crc32c-assembled records
// whose trailer came from the target's memo.
func (s ServerSnapshot) ChecksumMemoHitShare() float64 {
	if s.ChecksumMemoHits+s.ChecksumMemoMisses == 0 {
		return 0
	}
	return float64(s.ChecksumMemoHits) / float64(s.ChecksumMemoHits+s.ChecksumMemoMisses)
}

// ZeroCopyShare reports the fraction of read payload bytes that went out
// as store views rather than staged copies.
func (s ServerSnapshot) ZeroCopyShare() float64 {
	if s.ZeroCopyBytes+s.StagedBytes == 0 {
		return 0
	}
	return float64(s.ZeroCopyBytes) / float64(s.ZeroCopyBytes+s.StagedBytes)
}

// String renders the snapshot as a stats line: per-stage time, then the
// batching and zero-copy efficiency figures.
func (s ServerSnapshot) String() string {
	line := fmt.Sprintf(
		"qwait=%v service=%v flush=%v writevs=%d batch=%.1f cmds/flush zero-copy=%s staged=%s (%.0f%% zero-copy) restaged=%d",
		time.Duration(s.QueueWaitNanos), time.Duration(s.ServiceNanos), time.Duration(s.FlushNanos),
		s.Flushes, s.FlushBatch(),
		HumanBytes(s.ZeroCopyBytes), HumanBytes(s.StagedBytes), 100*s.ZeroCopyShare(), s.Restaged)
	if s.SampleCmds > 0 {
		line += fmt.Sprintf(" assembly cmds=%d samples=%d bytes=%s xform=%v",
			s.SampleCmds, s.AssembledSamples, HumanBytes(s.AssembledBytes), time.Duration(s.TransformNanos))
		if s.ChecksumMemoHits+s.ChecksumMemoMisses > 0 {
			line += fmt.Sprintf(" crc-memo hits=%d misses=%d (%.0f%% hits)",
				s.ChecksumMemoHits, s.ChecksumMemoMisses, 100*s.ChecksumMemoHitShare())
		}
	}
	if s.WriteBytes > 0 || s.FlushCmds > 0 {
		line += fmt.Sprintf(" write=%s vec-cmds=%d vec-segs=%d adopted=%d syncs=%d sync-wait=%v",
			HumanBytes(s.WriteBytes), s.VecWriteCmds, s.VecWriteSegs, s.AdoptedExtents, s.FlushCmds, time.Duration(s.FlushWaitNanos))
	}
	return line
}
