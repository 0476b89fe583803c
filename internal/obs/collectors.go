package obs

import (
	"io"
	"strconv"

	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
)

// TargetCollector renders one nvmetcp.Target as dlfs_server_* series:
// the serving counters, the RPQ/SCQ engine counters, per-tenant
// dlfs_server_tenant_* accounting (tenant-labelled; idle tenants are
// omitted), and — when the target runs with Config.StageHistograms —
// the qwait/service/flush latency histograms. target labels every
// series so one scrape can aggregate several stores.
func TargetCollector(target string, tgt *nvmetcp.Target) func(io.Writer) {
	lbl := []Label{{Name: "target", Value: target}}
	return func(w io.Writer) {
		cmds, bytes := tgt.Served()
		WriteCounter(w, "dlfs_server_commands_total", "Commands completed by the target.", cmds, lbl...)
		WriteCounter(w, "dlfs_server_payload_bytes_total", "Payload bytes moved by the target.", bytes, lbl...)
		accepted, malformed, aborted := tgt.ConnStats()
		WriteCounter(w, "dlfs_server_conns_accepted_total", "Connections accepted.", accepted, lbl...)
		WriteCounter(w, "dlfs_server_conns_malformed_total", "Connections dropped on a malformed frame.", malformed, lbl...)
		WriteCounter(w, "dlfs_server_completions_aborted_total", "Completions dropped because their connection died.", aborted, lbl...)
		reads, writes, vecReads, vecSegs := tgt.OpStats()
		WriteCounter(w, "dlfs_server_reads_total", "Single-segment read commands served.", reads, lbl...)
		WriteCounter(w, "dlfs_server_writes_total", "Write commands served.", writes, lbl...)
		WriteCounter(w, "dlfs_server_vec_reads_total", "Vectored read commands served.", vecReads, lbl...)
		WriteCounter(w, "dlfs_server_vec_segments_total", "Segments carried by vectored reads.", vecSegs, lbl...)
		WriteServerSnapshot(w, tgt.ServerStats(), lbl...)
		WriteCounter(w, "dlfs_server_tenant_rejects_total", "Commands refused for a malformed or unprovisioned tenant id.", tgt.TenantRejects(), lbl...)
		for _, ts := range tgt.TenantStats() {
			tl := append([]Label{{Name: "tenant", Value: strconv.Itoa(ts.ID)}}, lbl...)
			WriteCounter(w, "dlfs_server_tenant_commands_total", "Commands completed per tenant.", ts.Cmds, tl...)
			WriteCounter(w, "dlfs_server_tenant_bytes_total", "Payload bytes moved per tenant.", ts.Bytes, tl...)
			WriteCounter(w, "dlfs_server_tenant_throttled_total", "Commands rejected by the tenant's byte/IOPS quota.", ts.Throttled, tl...)
			WriteGauge(w, "dlfs_server_tenant_queue_depth", "Commands waiting in the tenant's scheduler queue.", float64(ts.Queued), tl...)
			WriteGauge(w, "dlfs_server_tenant_qwait_seconds_total", "Cumulative tenant-queue residency.", float64(ts.Server.QueueWaitNanos)/1e9, tl...)
			WriteGauge(w, "dlfs_server_tenant_service_seconds_total", "Cumulative command execution time per tenant.", float64(ts.Server.ServiceNanos)/1e9, tl...)
			if ts.Server.Stages != nil {
				WriteHistogram(w, "dlfs_server_tenant_qwait_seconds", "Per-command tenant-queue residency.", ts.Server.Stages.QueueWait, tl...)
				WriteHistogram(w, "dlfs_server_tenant_service_seconds", "Per-command execution time per tenant.", ts.Server.Stages.Service, tl...)
			}
		}
	}
}

// WriteServerSnapshot renders a metrics.ServerSnapshot: engine counters
// always, per-stage histograms when the snapshot carries them.
func WriteServerSnapshot(w io.Writer, s metrics.ServerSnapshot, labels ...Label) {
	WriteCounter(w, "dlfs_server_flushes_total", "Completion writev calls issued.", s.Flushes, labels...)
	WriteCounter(w, "dlfs_server_flushed_cmds_total", "Completions carried by writevs.", s.FlushedCmds, labels...)
	WriteCounter(w, "dlfs_server_zero_copy_bytes_total", "Read payload served as store views.", s.ZeroCopyBytes, labels...)
	WriteCounter(w, "dlfs_server_staged_bytes_total", "Read payload copied through the pool.", s.StagedBytes, labels...)
	WriteCounter(w, "dlfs_server_restaged_total", "Views invalidated by a write epoch change.", s.Restaged, labels...)
	WriteCounter(w, "dlfs_server_sample_cmds_total", "opReadSamples offload commands served.", s.SampleCmds, labels...)
	WriteCounter(w, "dlfs_server_assembled_samples_total", "Records assembled near-data for offload commands.", s.AssembledSamples, labels...)
	WriteCounter(w, "dlfs_server_assembled_bytes_total", "Post-transform record bytes returned by offload commands.", s.AssembledBytes, labels...)
	WriteGauge(w, "dlfs_server_transform_seconds_total", "Cumulative server-side transform time.", float64(s.TransformNanos)/1e9, labels...)
	WriteCounter(w, "dlfs_server_checksum_memo_hits_total", "crc32c-assembled records whose trailer came from the target's memo.", s.ChecksumMemoHits, labels...)
	WriteCounter(w, "dlfs_server_checksum_memo_misses_total", "crc32c-assembled records checksummed where they lie.", s.ChecksumMemoMisses, labels...)
	WriteCounter(w, "dlfs_server_write_bytes_total", "Write payload bytes landed in the store.", s.WriteBytes, labels...)
	WriteCounter(w, "dlfs_server_write_vec_cmds_total", "Gathered write commands served.", s.VecWriteCmds, labels...)
	WriteCounter(w, "dlfs_server_write_vec_segments_total", "Extents carried by gathered writes.", s.VecWriteSegs, labels...)
	WriteCounter(w, "dlfs_server_write_adopted_extents_total", "Extents landed zero-copy by buffer adoption.", s.AdoptedExtents, labels...)
	WriteCounter(w, "dlfs_server_write_flushes_total", "Durability barriers served.", s.FlushCmds, labels...)
	WriteGauge(w, "dlfs_server_write_flush_wait_seconds_total", "Cumulative time barriers waited for prior writes.", float64(s.FlushWaitNanos)/1e9, labels...)
	WriteGauge(w, "dlfs_server_qwait_seconds_total", "Cumulative RPQ residency.", float64(s.QueueWaitNanos)/1e9, labels...)
	WriteGauge(w, "dlfs_server_service_seconds_total", "Cumulative command execution time.", float64(s.ServiceNanos)/1e9, labels...)
	WriteGauge(w, "dlfs_server_flush_seconds_total", "Cumulative completion flush time.", float64(s.FlushNanos)/1e9, labels...)
	if s.Stages != nil {
		WriteHistogram(w, "dlfs_server_qwait_seconds", "Per-command RPQ residency.", s.Stages.QueueWait, labels...)
		WriteHistogram(w, "dlfs_server_service_seconds", "Per-command execution time.", s.Stages.Service, labels...)
		WriteHistogram(w, "dlfs_server_flush_seconds", "Per-writev completion flush time.", s.Stages.Flush, labels...)
		WriteHistogram(w, "dlfs_server_write_seconds", "Per-write-command store landing time.", s.Stages.Write, labels...)
	}
}

// ConsensusCollector renders one coordinator replica's Raft state as
// dlfs_raft_* series. replica labels every series so one scrape can
// cover a whole replica set; snap is called per scrape so the gauges
// (term, leadership, log indexes) track the live node.
func ConsensusCollector(replica string, snap func() metrics.ConsensusSnapshot) func(io.Writer) {
	lbl := []Label{{Name: "replica", Value: replica}}
	return func(w io.Writer) {
		s := snap()
		leading := 0.0
		if s.IsLeader {
			leading = 1
		}
		WriteGauge(w, "dlfs_raft_term", "Current Raft term.", float64(s.Term), lbl...)
		WriteGauge(w, "dlfs_raft_is_leader", "1 while this replica leads, else 0.", leading, lbl...)
		WriteCounter(w, "dlfs_raft_elections_total", "Elections this replica started.", s.Elections, lbl...)
		WriteCounter(w, "dlfs_raft_leader_wins_total", "Elections this replica won.", s.LeaderWins, lbl...)
		WriteCounter(w, "dlfs_raft_leader_losses_total", "Times this replica stepped down from leading.", s.LeaderLost, lbl...)
		WriteGauge(w, "dlfs_raft_last_index", "Highest log index appended.", float64(s.LastIndex), lbl...)
		WriteGauge(w, "dlfs_raft_commit_index", "Highest committed log index.", float64(s.CommitIndex), lbl...)
		WriteGauge(w, "dlfs_raft_applied_index", "Highest log index applied to the FSM.", float64(s.AppliedIndex), lbl...)
		WriteGauge(w, "dlfs_raft_commit_lag", "Committed entries not yet applied.", float64(s.CommitLag), lbl...)
		WriteCounter(w, "dlfs_raft_proposals_total", "Commands proposed through this replica.", s.Proposals, lbl...)
		WriteCounter(w, "dlfs_raft_snapshots_total", "Snapshot compactions taken.", s.Snapshots, lbl...)
		WriteCounter(w, "dlfs_raft_snapshots_installed_total", "Snapshots installed from a leader.", s.SnapshotsRx, lbl...)
	}
}

// PipelineCollector renders client pipeline counters (and stage
// histograms when enabled) as dlfs_client_* series. snap is called per
// scrape so the series track the live pipeline.
func PipelineCollector(client string, snap func() metrics.PipelineSnapshot) func(io.Writer) {
	lbl := []Label{{Name: "client", Value: client}}
	return func(w io.Writer) {
		s := snap()
		WriteCounter(w, "dlfs_client_wire_reads_total", "Read commands put on the wire.", s.WireReads, lbl...)
		WriteCounter(w, "dlfs_client_wire_segments_total", "Chunk segments carried by wire reads.", s.WireSegments, lbl...)
		WriteCounter(w, "dlfs_client_wire_bytes_total", "Payload bytes fetched.", s.WireBytes, lbl...)
		WriteCounter(w, "dlfs_client_coalesced_units_total", "Plan units merged into a preceding wire read.", s.CoalescedUnits, lbl...)
		WriteCounter(w, "dlfs_client_pool_hits_total", "Sample buffers served from the pool.", s.PoolHits, lbl...)
		WriteCounter(w, "dlfs_client_pool_misses_total", "Sample buffers freshly allocated.", s.PoolMisses, lbl...)
		WriteCounter(w, "dlfs_client_cache_hits_total", "ReadSample served from the V-bit cache.", s.CacheHits, lbl...)
		WriteCounter(w, "dlfs_client_cache_misses_total", "ReadSample that went to the wire.", s.CacheMisses, lbl...)
		WriteCounter(w, "dlfs_client_cache_evictions_total", "V-bit cache CLOCK evictions.", s.CacheEvictions, lbl...)
		WriteCounter(w, "dlfs_client_prefetched_units_total", "Units fetched ahead into the cross-epoch lookahead store.", s.PrefetchedUnits, lbl...)
		WriteCounter(w, "dlfs_client_prefetched_bytes_total", "Bytes fetched ahead into the cross-epoch lookahead store.", s.PrefetchedBytes, lbl...)
		WriteCounter(w, "dlfs_client_prefetch_hit_units_total", "Epoch units served from the lookahead store instead of the wire.", s.PrefetchHitUnits, lbl...)
		WriteCounter(w, "dlfs_client_prefetch_hit_bytes_total", "Epoch bytes served from the lookahead store.", s.PrefetchHitBytes, lbl...)
		WriteCounter(w, "dlfs_client_prefetch_evictions_total", "Lookahead entries evicted before use.", s.PrefetchEvictions, lbl...)
		WriteCounter(w, "dlfs_client_peer_hits_total", "ReadSample misses served by a peer's cache.", s.PeerHits, lbl...)
		WriteCounter(w, "dlfs_client_peer_bytes_total", "Bytes served by peers.", s.PeerBytes, lbl...)
		WriteCounter(w, "dlfs_client_peer_fallbacks_total", "Peer fetches that failed over to origin.", s.PeerFallbacks, lbl...)
		WriteCounter(w, "dlfs_client_peer_served_total", "Samples this rank served to its peers.", s.PeerServed, lbl...)
		WriteCounter(w, "dlfs_client_offload_cmds_total", "opReadSamples offload commands posted.", s.OffloadCmds, lbl...)
		WriteCounter(w, "dlfs_client_offload_samples_total", "Samples assembled server-side instead of copied client-side.", s.OffloadSamples, lbl...)
		WriteCounter(w, "dlfs_client_offload_downgrades_total", "Targets downgraded to opReadVec after rejecting opReadSamples.", s.OffloadDowngrades, lbl...)
		WriteCounter(w, "dlfs_client_origin_reads_total", "ReadSample misses served from the origin target.", s.OriginReads, lbl...)
		WriteCounter(w, "dlfs_client_origin_bytes_total", "Bytes pulled from origin targets by ReadSample.", s.OriginBytes, lbl...)
		WriteCounter(w, "dlfs_client_ckpt_saves_total", "Checkpoint saves completed.", s.CkptSaves, lbl...)
		WriteCounter(w, "dlfs_client_ckpt_bytes_total", "Checkpoint payload bytes shipped.", s.CkptBytes, lbl...)
		WriteCounter(w, "dlfs_client_ckpt_write_cmds_total", "Checkpoint write commands posted.", s.CkptWriteCmds, lbl...)
		WriteCounter(w, "dlfs_client_ckpt_write_segments_total", "Extents carried by checkpoint writes.", s.CkptWriteSegs, lbl...)
		WriteCounter(w, "dlfs_client_ckpt_flushes_total", "Per-target durability barriers issued by checkpoint saves.", s.CkptFlushes, lbl...)
		WriteCounter(w, "dlfs_client_ckpt_downgrades_total", "Targets downgraded to per-extent writes after rejecting opWriteVec.", s.CkptDowngrades, lbl...)
		WriteGauge(w, "dlfs_client_ckpt_seconds_total", "Cumulative wall time inside checkpoint saves.", float64(s.CkptNanos)/1e9, lbl...)
		WriteGauge(w, "dlfs_client_prep_seconds_total", "Cumulative prep stage time.", float64(s.PrepNanos)/1e9, lbl...)
		WriteGauge(w, "dlfs_client_post_seconds_total", "Cumulative post stage time.", float64(s.PostNanos)/1e9, lbl...)
		WriteGauge(w, "dlfs_client_poll_seconds_total", "Cumulative poll stage time.", float64(s.PollNanos)/1e9, lbl...)
		WriteGauge(w, "dlfs_client_copy_seconds_total", "Cumulative copy stage time.", float64(s.CopyNanos)/1e9, lbl...)
		if s.Stages != nil {
			WriteHistogram(w, "dlfs_client_prep_seconds", "Per-fetch-group prep latency.", s.Stages.Prep, lbl...)
			WriteHistogram(w, "dlfs_client_post_seconds", "Per-fetch-group post latency.", s.Stages.Post, lbl...)
			WriteHistogram(w, "dlfs_client_poll_seconds", "Per-fetch-group poll latency.", s.Stages.Poll, lbl...)
			WriteHistogram(w, "dlfs_client_copy_seconds", "Copy latency per stretch of consecutive sample copies.", s.Stages.Copy, lbl...)
			WriteHistogram(w, "dlfs_client_read_seconds", "Whole synchronous ReadSample latency.", s.Stages.Read, lbl...)
			WriteHistogram(w, "dlfs_client_ckpt_write_seconds", "Per-checkpoint-write-command post-to-completion latency.", s.Stages.Ckpt, lbl...)
		}
	}
}
