package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

const (
	warmupUnits = 2 // the first two chunk-path epochs run slow while the arena and pool are first touched
	minUnits    = 3
	// setup_s is the median of at least minSetups set-ups, and of as many
	// more (up to maxSetups) as it takes to have spent setupSeconds
	// setting up: a short set-up is as exposed to a burst of
	// interference as a long one, so it is sampled more often.
	minSetups    = 5
	maxSetups    = 12
	setupSeconds = 4.0
)

// burst is a reference burst and when it ended.
type burst struct {
	at time.Time
	reference
}

// window is what one measured window over an environment produced.
type window struct {
	units   []unitStats
	lat     []int64 // sorted ns per consumer call
	epochs  bool    // the consumer call is NextBatch, not ReadSample
	mallocs uint64
	delta   counters
	sv      *saver // ckpt-mixed only
}

func (w *window) totals() (bytes, samples int64) {
	for _, u := range w.units {
		bytes += u.bytes
		samples += u.samples
	}
	return bytes, samples
}

// perUnit summarises f over the units.
func (w *window) perUnit(f func(u unitStats) float64) stat {
	v := make([]float64, len(w.units))
	for i, u := range w.units {
		v[i] = f(u)
	}
	return statOf(v)
}

func epochRate(u unitStats) float64 { return float64(u.bytes) / gib / u.consume.Seconds() }
func cycleRate(u unitStats) float64 { return float64(u.bytes) / gib / u.cycle.Seconds() }
func loopback(u unitStats) float64  { return u.ref.gibPerS }

// measure warms the environment up, then runs units back to back for
// the given time (and at least minUnits), with a reference burst in the
// gap before a unit whenever the last one is burstEvery old. It reads
// every counter the system exposes before and after.
func measure(e env, r *run, secs float64, parent int32) (*window, error) {
	sp := r.rec.begin(parent, 0, "measure")
	defer r.rec.end(sp)
	for i := 0; i < shortened(r.params, warmupUnits, 0); i++ {
		if _, err := e.unit(sp); err != nil {
			return nil, err
		}
	}
	w := &window{}
	if ee, ok := e.(*epochEnv); ok {
		w.epochs, w.sv = true, ee.sv
	}
	if w.sv != nil {
		// Checkpoints are saved beside the units for the whole window.
		w.sv.start()
		defer w.sv.finish()
	}
	r.rec.resetWindow()
	before := e.counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	var bursts []burst
	refresh := func() error {
		ref, err := r.cal.burst()
		bursts = append(bursts, burst{at: time.Now(), reference: ref})
		return err
	}
	start := time.Now()
	for len(w.units) < shortened(r.params, minUnits, 2) || time.Since(start).Seconds() < secs {
		if len(bursts) == 0 || time.Since(bursts[len(bursts)-1].at) >= burstEvery {
			if err := refresh(); err != nil {
				return nil, err
			}
		}
		cpu0, _ := rusage()
		u, err := e.unit(sp)
		if err != nil {
			return nil, err
		}
		cpu1, _ := rusage()
		u.cpu, u.ended = cpu1-cpu0, time.Now()
		w.units = append(w.units, u)
	}
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - mallocs0
	w.delta = e.counters()
	addInts(&w.delta, &before, -1)
	if err := refresh(); err != nil {
		return nil, err
	}
	// A unit's reference is the mean of the bursts either side of it.
	b := 0
	for i := range w.units {
		u := &w.units[i]
		for bursts[b+1].at.Before(u.ended) {
			b++
		}
		u.ref = reference{
			gibPerS:   (bursts[b].gibPerS + bursts[b+1].gibPerS) / 2,
			cpuPerGiB: (bursts[b].cpuPerGiB + bursts[b+1].cpuPerGiB) / 2,
		}
	}
	w.lat = r.rec.resetWindow()
	return w, nil
}

// phase sets a workload up in one configuration, measures a window and
// tears it down.
func (r *run) phase(w *workload, o opts, secs float64, name string) (*window, setupStats, error) {
	sp := r.rec.begin(noSpan, 0, name)
	defer r.rec.end(sp)
	ssp := r.rec.begin(sp, 0, "setup")
	e, st, err := w.setup(r, o)
	r.rec.end(ssp)
	if err != nil {
		return nil, st, err
	}
	win, err := measure(e, r, secs, sp)
	csp := r.rec.begin(sp, 0, "teardown")
	e.close()
	r.rec.end(csp)
	return win, st, err
}

// result is the outcome of one run of one workload.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]stat
	info      map[string]stat // printed, not part of the result line
}

// runWorkload is the whole of one run. Untraced, it measures the
// end-to-end metrics with every observability knob off. Traced, it
// measures the workload twice, first as before and then with stage
// histograms and the wall recorder on, then the workload's reference
// variant if it has one, then the ladder; per-layer metrics come from
// the traced window, raw end-to-end numbers from the untraced one, and
// the two windows' difference is the tracing overhead.
func runWorkload(w *workload, p params, traced bool, traceOut string) (*result, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	r := &run{params: p, rec: newRecorder(traced), cal: cal}
	res := &result{}
	if !traced {
		win, st, err := r.phase(w, opts{}, p.seconds, "measure")
		if err != nil {
			return nil, err
		}
		_, rss := rusage()
		setups := []setupStats{st}
		// cluster-peers times a set-up in every unit and none here.
		spent := st.total.Seconds()
		for k := 1; st.total > 0 && k < shortened(p, maxSetups, 2) && (k < minSetups || spent < setupSeconds); k++ {
			e, st, err := w.setup(r, opts{})
			if err != nil {
				return nil, err
			}
			e.close()
			setups = append(setups, st)
			spent += st.total.Seconds()
		}
		setups = allSetups(win, setups)
		res.metrics = endToEnd(win, setups, rss)
		res.info = raw(win, setups)
	} else {
		ref, st1, err := r.phase(w, opts{}, p.seconds/2, "untraced")
		if err != nil {
			return nil, err
		}
		win, st2, err := r.phase(w, opts{traced: true}, p.seconds/2, "traced")
		if err != nil {
			return nil, err
		}
		var variant *window
		if w.variant != "" {
			if variant, _, err = r.phase(w, opts{variant: true}, p.seconds/4, "variant"); err != nil {
				return nil, err
			}
		}
		rungs, err := runLadder(r)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		res.metrics = perLayer(w, ref, win, variant, allSetups(win, []setupStats{st1, st2}), rungs)
	}
	if traceOut != "" && traced {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		if err := r.rec.writeChromeJSON(f); err != nil {
			f.Close() //nolint:errcheck // the write error is the one to report
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	for _, note := range r.rec.notes {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", note)
	}
	res.correct, res.attempted, res.failed = r.rec.failed == 0, r.rec.attempted, r.rec.failed
	return res, nil
}

// allSetups is every set-up a run timed: the ones made on purpose, and
// on cluster-peers the remount each unit begins with.
func allSetups(w *window, made []setupStats) []setupStats {
	var out []setupStats
	for _, st := range made {
		if st.total > 0 {
			out = append(out, st)
		}
	}
	for _, u := range w.units {
		if u.setup.total > 0 {
			out = append(out, u.setup)
		}
	}
	return out
}

func setupStat(setups []setupStats, f func(st setupStats) float64) stat {
	v := make([]float64, len(setups))
	for i, st := range setups {
		v[i] = f(st)
	}
	return statOf(v)
}

func uploadRate(st setupStats) float64 { return float64(st.uploaded) / gib / st.mount.Seconds() }

// saveRates is the state size over each save's wall time, timed from
// when the save was due.
func saveRates(sv *saver) []float64 {
	v := seconds(sv.fromDue)
	for i, s := range v {
		v[i] = float64(len(sv.state)) / gib / s
	}
	return v
}

// endToEnd computes the gated metrics. Every one is defined, and never
// 0, on every workload; README.md says what each means on each. The
// time-based ones are relative to the raw loopback reference measured
// beside them (see calibrate.go).
func endToEnd(w *window, setups []setupStats, rssMiB float64) map[string]stat {
	bytes, samples := w.totals()
	m := map[string]stat{
		"setup_s":             setupStat(setups, func(st setupStats) float64 { return st.total.Seconds() }),
		"epoch_over_loopback": w.perUnit(func(u unitStats) float64 { return epochRate(u) / u.ref.gibPerS }),
		"cycle_over_loopback": w.perUnit(func(u unitStats) float64 { return cycleRate(u) / u.ref.gibPerS }),
		// CPU seconds per byte delivered, client and targets together,
		// over what a raw socket spends per byte.
		"cpu_over_loopback":  w.perUnit(func(u unitStats) float64 { return u.cpu / (float64(u.bytes) / gib) / u.ref.cpuPerGiB }),
		"allocs_per_sample":  scalar(float64(w.mallocs) / float64(samples)),
		"wire_amplification": scalar(float64(w.delta.wireBytes()) / float64(bytes)),
		"rss_peak_mib":       scalar(rssMiB),
	}
	return m
}

// raw computes the same window in absolute units: what a user of this
// box would see, and on this box unsteady from run to run.
func raw(w *window, setups []setupStats) map[string]stat {
	bytes, _ := w.totals()
	var cpu float64
	for _, u := range w.units {
		cpu += u.cpu
	}
	m := map[string]stat{
		"epoch_gib_per_s":         w.perUnit(epochRate),
		"cycle_gib_per_s":         w.perUnit(cycleRate),
		"read_p50_us":             scalar(quantileUs(w.lat, 0.50)),
		"read_kops_per_s":         w.perUnit(func(u unitStats) float64 { return float64(u.samples) / 1e3 / u.consume.Seconds() }),
		"save_gib_per_s":          setupStat(setups, uploadRate),
		"cpu_s_per_gib":           scalar(cpu / (float64(bytes) / gib)),
		"host.loopback_gib_per_s": w.perUnit(loopback),
	}
	if w.sv != nil && len(w.sv.fromDue) > 0 {
		m["save_gib_per_s"] = statOf(saveRates(w.sv))
	}
	return m
}

// perLayer computes the metrics of a traced run: the single-layer ones
// from the traced window and the ladder, the raw end-to-end ones from
// the untraced window. A layer the workload does not exercise reports 0.
func perLayer(wl *workload, ref, w, variant *window, setups []setupStats, rungs map[string]float64) map[string]stat {
	m := raw(ref, setups)
	for name, v := range rungs {
		m[name] = scalar(v)
	}
	set := func(name string, v float64) { m[name] = scalar(v) }
	bytes, _ := w.totals()
	gibs := float64(bytes) / gib
	d := w.delta
	ms := func(f func(u unitStats) time.Duration) stat {
		return w.perUnit(func(u unitStats) float64 { return f(u).Seconds() * 1e3 })
	}
	refRate := m["epoch_gib_per_s"]
	refBytes, _ := ref.totals()

	m["dataset.generate_s"] = setupStat(setups, func(st setupStats) float64 { return st.generate.Seconds() })
	set("bufpool.hit_ratio", div(float64(d.Pipe.PoolHits), float64(d.Pipe.PoolHits+d.Pipe.PoolMisses)))

	set("nvmetcp.target_qwait_us_per_cmd", div(float64(d.Srv.QueueWaitNanos)/1e3, float64(d.Cmds)))
	set("nvmetcp.target_service_us_per_cmd", div(float64(d.Srv.ServiceNanos)/1e3, float64(d.Cmds)))
	set("nvmetcp.target_flush_us_per_cmd", div(float64(d.Srv.FlushNanos)/1e3, float64(d.Srv.FlushedCmds)))
	set("nvmetcp.target_cmds_per_writev", div(float64(d.Srv.FlushedCmds), float64(d.Srv.Flushes)))
	set("nvmetcp.target_zero_copy_share", div(float64(d.Srv.ZeroCopyBytes), float64(d.Srv.ZeroCopyBytes+d.Srv.StagedBytes)))
	set("nvmetcp.target_restaged", float64(d.Srv.Restaged))
	set("nvmetcp.target_transform_us_per_sample", div(float64(d.Srv.TransformNanos)/1e3, float64(d.Srv.AssembledSamples)))
	set("nvmetcp.target_flush_wait_ms_per_save", div(float64(d.Srv.FlushWaitNanos)/1e6, float64(d.Pipe.CkptSaves)))
	set("nvmetcp.target_adopted_share", div(float64(d.Srv.AdoptedExtents), float64(d.Srv.VecWriteSegs)))

	m["live.sequence_ms"] = ms(func(u unitStats) time.Duration { return u.sequence })
	m["live.first_batch_ms"] = ms(func(u unitStats) time.Duration { return u.firstBatch })
	var nextBatch, readSample []int64
	if w.epochs {
		nextBatch = w.lat
	} else {
		readSample = w.lat
	}
	set("live.nextbatch_p50_us", quantileUs(nextBatch, 0.50))
	set("live.nextbatch_p99_us", quantileUs(nextBatch, 0.99))
	set("live.readsample_p90_us", quantileUs(readSample, 0.90))
	set("live.readsample_p99_us", quantileUs(readSample, 0.99))
	set("live.prep_s_per_gib", float64(d.Pipe.PrepNanos)/1e9/gibs)
	set("live.post_s_per_gib", float64(d.Pipe.PostNanos)/1e9/gibs)
	set("live.poll_s_per_gib", float64(d.Pipe.PollNanos)/1e9/gibs)
	set("live.copy_s_per_gib", float64(d.Pipe.CopyNanos)/1e9/gibs)
	set("live.wire_reads_per_epoch", float64(d.Pipe.WireReads)/float64(len(w.units)))
	set("live.segments_per_wire_read", div(float64(d.Pipe.WireSegments), float64(d.Pipe.WireReads)))
	m["live.mount_upload_us_per_sample"] = setupStat(setups, func(st setupStats) float64 { return st.mount.Seconds() * 1e6 / float64(st.samples) })
	set("live.retries", float64(d.Res.Retries))
	set("live.breaker_trips", float64(d.Res.BreakerTrips))
	set("live.readcache_hit_ratio", div(float64(d.Pipe.CacheHits), float64(d.Pipe.CacheHits+d.Pipe.CacheMisses)))

	m["live.prefetch_round_s"] = w.perUnit(func(u unitStats) float64 { return u.prefetchWait.Seconds() })
	set("live.prefetch_hit_share", div(float64(d.Pipe.PrefetchHitBytes), float64(d.Pipe.PrefetchHitBytes+d.Pipe.WireBytes)))

	var save, late stat
	var saveMax, load float64
	if w.sv != nil {
		save, late = statOf(seconds(w.sv.inSave)), statOf(seconds(w.sv.late))
		for _, v := range w.sv.inSave {
			saveMax = max(saveMax, v.Seconds())
		}
		load = div(float64(len(w.sv.state))/gib, w.sv.load.Seconds())
	}
	set("live.ckpt_save_p50_ms", save.Value*1e3)
	set("live.ckpt_save_max_ms", saveMax*1e3)
	set("live.ckpt_cmds_per_save", div(float64(d.Pipe.CkptWriteCmds), float64(d.Pipe.CkptSaves)))
	set("live.ckpt_load_gib_per_s", load)
	set("bench.saver_late_ms", late.Value*1e3)

	m["live.mount_index_s"] = setupStat(setups, func(st setupStats) float64 { return float64(st.mnt.IndexNanos) / 1e9 })
	m["live.mount_allgather_s"] = setupStat(setups, func(st setupStats) float64 { return float64(st.mnt.AllgatherNanos) / 1e9 })
	m["live.mount_barrier_s"] = setupStat(setups, func(st setupStats) float64 { return float64(st.mnt.BarrierNanos) / 1e9 })
	set("live.peer_hit_share", div(float64(d.Pipe.PeerHits), float64(d.Pipe.CacheMisses)))
	set("live.peer_fallbacks", float64(d.Pipe.PeerFallbacks))

	// The reference variant: cold epochs for imagenet-warm, the peer
	// cache off for cluster-peers. Both sides are untraced windows, and
	// both are taken relative to the loopback reference beside them.
	overLoopback := func(w *window) float64 {
		return w.perUnit(func(u unitStats) float64 { return epochRate(u) / u.ref.gibPerS }).Value
	}
	set("live.store_consume_over_cold", 0)
	set("peercache.scan_over_origin", 0)
	if variant != nil {
		set(wl.variant, overLoopback(ref)/overLoopback(variant))
	}

	set("trace.overhead_pct", (1-overLoopback(w)/overLoopback(ref))*100)
	set("bench.epoch_iqr_pct", (refRate.Q3-refRate.Q1)/refRate.Value*100)

	// The rungs as fractions of the rung beneath. The top one is what
	// the workload pulls over the wire, as a share of what a raw
	// loopback socket carried beside it.
	lb := m["host.loopback_gib_per_s"].Value
	set("ladder.loopback_over_memcpy", div(lb, rungs["host.memcpy_gib_per_s"]))
	set("ladder.qpgroup_over_loopback", div(rungs["nvmetcp.qpgroup_gib_per_s"], lb))
	set("ladder.epoch_over_loopback", overLoopback(ref)*float64(ref.delta.wireBytes())/float64(refBytes))
	return m
}
