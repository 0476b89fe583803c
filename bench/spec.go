package main

// The benchmark's contract: the one command, the workloads and every
// metric with its unit, its better direction and, for end-to-end
// metrics, the share of the parent's median by which it may get worse.
// `bench -spec` prints this as BENCHMARK.json; bench_test.go fails when
// the file at the root of the repository and this table differ, or when
// a run emits a name that is not here.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEndSpec `json:"end_to_end"`
	PerLayer   []perLayerSpec `json:"per_layer"`
}

const (
	lower  = "lower"
	higher = "higher"
)

const runSeconds = 10

func spec() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndSpecs,
		PerLayer:   perLayerSpecs,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{Name: w.name, Why: w.why})
	}
	return s
}

// The bounds are what the box supports: over ten runs on ten seeds the
// ratio metrics spread 3-9% between quartiles, peak RSS up to 7% (17%
// seen once on ckpt-mixed), and the two counts, which depend on the
// seeded dataset, 3% and 1.2%. Each bound is at least three times that.
var endToEndSpecs = []endToEndSpec{
	{"setup_s", "s", lower, 0.25},
	{"epoch_over_loopback", "ratio", higher, 0.25},
	{"cycle_over_loopback", "ratio", higher, 0.25},
	{"cpu_over_loopback", "ratio", lower, 0.25},
	{"allocs_per_sample", "count", lower, 0.10},
	{"wire_amplification", "ratio", lower, 0.05},
	{"rss_peak_mib", "MiB", lower, 0.25},
}

var perLayerSpecs = []perLayerSpec{
	// The end-to-end numbers in absolute units, from the untraced window
	// of the traced run. They drift with the box (see calibrate.go), so
	// they are reported, not gated.
	{"epoch_gib_per_s", "GiB/s", higher},
	{"cycle_gib_per_s", "GiB/s", higher},
	{"read_p50_us", "us", lower},
	{"read_kops_per_s", "kops/s", higher},
	{"save_gib_per_s", "GiB/s", higher},
	{"cpu_s_per_gib", "CPU-s/GiB", lower},

	// The roofline, and every rung as a fraction of the rung beneath.
	{"host.memcpy_gib_per_s", "GiB/s", higher},
	{"host.loopback_gib_per_s", "GiB/s", higher},
	{"host.loopback_rtt_us", "us", lower},
	{"ladder.loopback_over_memcpy", "ratio", higher},
	{"ladder.qpgroup_over_loopback", "ratio", higher},
	{"ladder.epoch_over_loopback", "ratio", higher},

	{"dataset.generate_s", "s", lower},
	{"dataset.content_gib_per_s", "GiB/s", higher},
	{"directory.build_s", "s", lower},
	{"directory.lookup_ns", "ns", lower},
	{"directory.serialize_mib_per_s", "MiB/s", higher},
	{"plan.build_ms", "ms", lower},
	{"plan.overfetch_ratio", "ratio", lower},

	{"hugepage.alloc_free_ns", "ns", lower},
	{"bufpool.get_put_ns", "ns", lower},
	{"bufpool.hit_ratio", "ratio", higher},

	{"blockdev.readat_gib_per_s", "GiB/s", higher},
	{"blockdev.view_ns", "ns", lower},
	{"blockdev.writeat_gib_per_s", "GiB/s", higher},
	{"blockdev.adopt_gib_per_s", "GiB/s", higher},

	{"nvmetcp.connect_ms", "ms", lower},
	{"nvmetcp.read_rtt_us", "us", lower},
	{"nvmetcp.read_kcmds_per_s", "kcmds/s", higher},
	{"nvmetcp.readvec_1qp_gib_per_s", "GiB/s", higher},
	{"nvmetcp.qpgroup_gib_per_s", "GiB/s", higher},
	{"nvmetcp.readsamples_gib_per_s", "GiB/s", higher},
	{"nvmetcp.writevec_gib_per_s", "GiB/s", higher},
	{"nvmetcp.flush_rtt_us", "us", lower},

	// Target side: deltas of Target.ServerStats over the traced window.
	{"nvmetcp.target_qwait_us_per_cmd", "us", lower},
	{"nvmetcp.target_service_us_per_cmd", "us", lower},
	{"nvmetcp.target_flush_us_per_cmd", "us", lower},
	{"nvmetcp.target_cmds_per_writev", "count", higher},
	{"nvmetcp.target_zero_copy_share", "ratio", higher},
	{"nvmetcp.target_restaged", "count", lower},
	{"nvmetcp.target_transform_us_per_sample", "us", lower},
	{"nvmetcp.target_flush_wait_ms_per_save", "ms", lower},
	{"nvmetcp.target_adopted_share", "ratio", higher},

	// Client side: consumer-side spans and Pipeline counter deltas.
	{"live.sequence_ms", "ms", lower},
	{"live.first_batch_ms", "ms", lower},
	{"live.nextbatch_p50_us", "us", lower},
	{"live.nextbatch_p99_us", "us", lower},
	{"live.prep_s_per_gib", "s/GiB", lower},
	{"live.post_s_per_gib", "s/GiB", lower},
	{"live.poll_s_per_gib", "s/GiB", lower},
	{"live.copy_s_per_gib", "s/GiB", lower},
	{"live.wire_reads_per_epoch", "count", lower},
	{"live.segments_per_wire_read", "count", higher},
	{"live.mount_upload_us_per_sample", "us", lower},
	{"live.retries", "count", lower},
	{"live.breaker_trips", "count", lower},

	{"live.readcache_hit_ratio", "ratio", higher},
	{"live.readsample_p90_us", "us", lower},
	{"live.readsample_p99_us", "us", lower},

	{"live.prefetch_round_s", "s", lower},
	{"live.prefetch_hit_share", "ratio", higher},
	{"live.store_consume_over_cold", "ratio", higher},

	{"live.ckpt_save_p50_ms", "ms", lower},
	{"live.ckpt_save_max_ms", "ms", lower},
	{"live.ckpt_cmds_per_save", "count", lower},
	{"live.ckpt_load_gib_per_s", "GiB/s", higher},
	{"bench.saver_late_ms", "ms", lower},

	{"live.mount_index_s", "s", lower},
	{"live.mount_allgather_s", "s", lower},
	{"live.mount_barrier_s", "s", lower},
	{"coord.barrier_rtt_us", "us", lower},
	{"coord.allgather_mib_per_s", "MiB/s", higher},
	{"peercache.fetch_rtt_us", "us", lower},
	{"peercache.fetch_gib_per_s", "GiB/s", higher},
	{"live.peer_hit_share", "ratio", higher},
	{"live.peer_fallbacks", "count", lower},
	{"peercache.scan_over_origin", "ratio", higher},

	{"trace.overhead_pct", "%", lower},
	{"metrics.hist_observe_ns", "ns", lower},
	{"bench.epoch_iqr_pct", "%", lower},
}
