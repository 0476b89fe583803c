package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"dlfs/internal/blockdev"
	"dlfs/internal/bufpool"
	"dlfs/internal/coord"
	"dlfs/internal/directory"
	"dlfs/internal/hugepage"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/peercache"
	"dlfs/internal/sample"
)

// The ladder measures every layer between a memcpy and an epoch from
// outside, by timing calls into its public functions, in the same
// process and on the same box as the traced workload run. Each rung is
// short (tens of milliseconds): the ladder is there to say where time
// should go, and to show which layer moved when an end-to-end metric
// does; no rung is gated.

const (
	mib       = 1 << 20
	rungShort = 40 * time.Millisecond  // per-call rungs
	rungLong  = 120 * time.Millisecond // bandwidth rungs
)

// spin calls fn in batches until d has passed and returns the calls
// made and the time they took.
func spin(d time.Duration, batch int, fn func()) (calls int, el time.Duration) {
	t0 := time.Now()
	for el < d {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		el = time.Since(t0)
	}
	return calls, el
}

func perCallNs(calls int, el time.Duration) float64 {
	return float64(el.Nanoseconds()) / float64(calls)
}

func gibPerS(bytes int64, el time.Duration) float64 { return float64(bytes) / gib / el.Seconds() }

// waiter is a submitted command: nvmetcp's Pending and RePending.
type waiter interface{ Wait() (int, error) }

// submitted turns a submit call's typed result into a waiter, keeping a
// failed submit's nil pointer from becoming a non-nil interface.
func submitted[P waiter](pd P, err error) (waiter, error) {
	if err != nil {
		return nil, err
	}
	return pd, nil
}

type ladder struct {
	r           *run
	root        int32
	short, long time.Duration
	rs          *replicaSet // for the coord rung
	rungs       map[string]float64
}

// rung runs one measurement under its own span.
func (l *ladder) rung(name string, fn func() error) error {
	sp := l.r.rec.begin(l.root, 0, name)
	defer l.r.rec.end(sp)
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func runLadder(r *run) (map[string]float64, error) {
	l := &ladder{r: r, rungs: make(map[string]float64, 48),
		short: shortened(r.params, rungShort, rungShort/10), long: shortened(r.params, rungLong, rungLong/10)}
	l.root = r.rec.begin(noSpan, 0, "ladder")
	defer r.rec.end(l.root)
	runtime.GC() // the workload's garbage is not the rungs' to collect
	// The coordinator's election runs while the other rungs are measured.
	var err error
	if l.rs, err = startReplicaSet(); err != nil {
		return nil, err
	}
	defer l.rs.close()
	for _, g := range []struct {
		name string
		fn   func() error
	}{
		{"host", l.host}, {"dataset", l.dataset}, {"directory+plan", l.directoryPlan}, {"memory", l.memory},
		{"blockdev", l.blockdev}, {"nvmetcp", l.nvmetcp}, {"coord", l.coord}, {"peercache", l.peercache},
	} {
		if err := l.rung(g.name, g.fn); err != nil {
			return nil, err
		}
	}
	return l.rungs, nil
}

// host is the roofline: what memory carries, and a socket round trip.
func (l *ladder) host() error {
	// One copier per core over buffers far larger than the caches,
	// touched once before the clock starts.
	var wg, ready sync.WaitGroup
	rates := make([]float64, runtime.NumCPU())
	ready.Add(len(rates))
	start := make(chan struct{})
	for i := range rates {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, dst := make([]byte, 32*mib), make([]byte, 32*mib)
			copy(dst, src)
			ready.Done()
			<-start
			n, el := spin(l.long, 1, func() { copy(dst, src) })
			rates[i] = gibPerS(int64(n)*int64(len(src)), el)
		}(i)
	}
	ready.Wait()
	close(start)
	wg.Wait()
	for _, r := range rates {
		l.rungs["host.memcpy_gib_per_s"] += r
	}

	// What a loopback socket carries is measured beside the workload,
	// by the calibrator; here only its round trip: 1-byte ping-pong.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close() //nolint:errcheck // loopback listener
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close() //nolint:errcheck // loopback conn
		io.Copy(c, c)   //nolint:errcheck // echo until the client closes
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	b := make([]byte, 1)
	calls, el := spin(l.short, 16, func() {
		c.Write(b) //nolint:errcheck // a broken pipe shows as a failed read
		_, err = io.ReadFull(c, b)
	})
	c.Close() //nolint:errcheck // loopback conn
	<-done
	if err != nil {
		return err
	}
	l.rungs["host.loopback_rtt_us"] = perCallNs(calls, el) / 1e3
	return nil
}

func (l *ladder) dataset() error {
	ds := l.r.c.ds
	buf := make([]byte, mib)
	var i, filled int64
	_, el := spin(l.long, 1, func() {
		k := int(i % int64(ds.Len()))
		ds.FillContent(k, buf[:ds.Samples[k].Size])
		filled += int64(ds.Samples[k].Size)
		i++
	})
	l.rungs["dataset.content_gib_per_s"] = gibPerS(filled, el)
	return nil
}

// directoryPlan builds the workload's directory and chunk plan the way
// Mount does, over the workload's own dataset.
func (l *ladder) directoryPlan() error {
	c := l.r.c
	t0 := time.Now()
	parts := make([]*directory.Partition, epochTargets)
	for i := range parts {
		parts[i] = directory.NewPartition(uint16(i))
	}
	offs := make([]int64, epochTargets)
	for _, s := range c.ds.Samples {
		nid := directory.HomeNode(s.Key(), epochTargets)
		e, err := sample.NewEntry(nid, s.Key(), offs[nid], int32(s.Size))
		if err != nil {
			return err
		}
		if err := parts[nid].Add(e); err != nil {
			return err
		}
		offs[nid] += int64(s.Size)
	}
	dir, err := directory.New(parts)
	if err != nil {
		return err
	}
	l.rungs["directory.build_s"] = time.Since(t0).Seconds()

	i, found := 0, true
	n, el := spin(l.short, 1024, func() {
		_, _, _, ok := dir.Lookup(c.ds.Samples[i%c.ds.Len()].Key())
		found = found && ok
		i++
	})
	if !found {
		return fmt.Errorf("directory lookup missed a key it was built with")
	}
	l.rungs["directory.lookup_ns"] = perCallNs(n, el)

	var blob []byte
	n, el = spin(l.short, 1, func() { blob = parts[0].Serialize() })
	l.rungs["directory.serialize_mib_per_s"] = float64(n) * float64(len(blob)) / mib / el.Seconds()

	cp, build := chunkPlan(c, epochTargets, defaultChunk)
	l.rungs["plan.build_ms"] = build.Seconds() * 1e3
	l.rungs["plan.overfetch_ratio"] = float64(cp.BytesFetched()) / float64(c.bytes)
	return nil
}

func (l *ladder) memory() error {
	arena, err := hugepage.NewArena(64*mib, defaultChunk)
	if err != nil {
		return err
	}
	n, el := spin(l.short, 1024, func() {
		ch, aerr := arena.Alloc()
		if aerr != nil {
			err = aerr
			return
		}
		err = arena.Free(ch)
	})
	if err != nil {
		return err
	}
	l.rungs["hugepage.alloc_free_ns"] = perCallNs(n, el)

	pool := bufpool.New()
	n, el = spin(l.short, 1024, func() { pool.Put(pool.Get(16 << 10)) })
	l.rungs["bufpool.get_put_ns"] = perCallNs(n, el)

	var h metrics.Hist
	n, el = spin(l.short, 1024, func() { h.Observe(35 * time.Microsecond) })
	l.rungs["metrics.hist_observe_ns"] = perCallNs(n, el)
	return nil
}

func (l *ladder) blockdev() error {
	const span = 64 * mib
	st := blockdev.New(span)
	buf := make([]byte, mib)
	var err error
	off := int64(0)
	next := func() int64 {
		o := off
		off = (off + mib) % span
		return o
	}
	for i := 0; i < span/mib; i++ { // first touch, untimed
		if _, err := st.WriteAt(buf, next()); err != nil {
			return err
		}
	}
	n, el := spin(l.long, 1, func() { _, err = st.WriteAt(buf, next()) })
	l.rungs["blockdev.writeat_gib_per_s"] = gibPerS(int64(n)*mib, el)
	n, el = spin(l.long, 1, func() { _, err = st.ReadAt(buf, next()) })
	l.rungs["blockdev.readat_gib_per_s"] = gibPerS(int64(n)*mib, el)
	var view [][]byte
	n, el = spin(l.short, 1024, func() { view, _, err = st.View(next(), defaultChunk, view[:0]) })
	l.rungs["blockdev.view_ns"] = perCallNs(n, el)
	if err != nil {
		return err
	}
	// Adoption hands the buffer to the store, so every write needs a
	// fresh one; they are allocated before the clock starts.
	fresh := make([][]byte, span/mib)
	for i := range fresh {
		fresh[i] = make([]byte, mib)
	}
	t0 := time.Now()
	for i, b := range fresh {
		if _, _, err := st.WriteVecAdopt(b, []int64{int64(i) * mib}, []int{mib}); err != nil {
			return err
		}
	}
	l.rungs["blockdev.adopt_gib_per_s"] = gibPerS(span, time.Since(t0))
	return nil
}

// nvmetcp climbs the transport against one extra target: one command
// at a time, then pipelined, then vectored, then striped over the queue
// pairs a mount opens, then the write side.
func (l *ladder) nvmetcp() error {
	const span = 64 * mib
	tgt := nvmetcp.NewTargetConfig(blockdev.New(storeCapacity), nvmetcp.Config{StageHistograms: true})
	addr, err := tgt.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tgt.Close() //nolint:errcheck // in-process teardown

	var connects []float64
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		in, err := nvmetcp.Connect(addr)
		if err != nil {
			return err
		}
		connects = append(connects, time.Since(t0).Seconds()*1e3)
		in.Close() //nolint:errcheck // probe connection
	}
	l.rungs["nvmetcp.connect_ms"] = median(connects)

	in, err := nvmetcp.Connect(addr)
	if err != nil {
		return err
	}
	defer in.Close() //nolint:errcheck // in-process teardown
	buf := make([]byte, mib)
	for off := int64(0); off < span; off += mib {
		if _, err := in.WriteAt(buf, off); err != nil {
			return err
		}
	}
	off := int64(0)
	next := func(step int64) int64 {
		o := off
		off = (off + step) % span
		return o
	}

	small := make([]byte, 512)
	n, el := spin(l.short, 16, func() { _, err = in.ReadAt(small, next(4096)) })
	if err != nil {
		return err
	}
	l.rungs["nvmetcp.read_rtt_us"] = perCallNs(n, el) / 1e3

	// pipelined keeps depth commands in flight: submit, and once the
	// ring is full wait for the oldest before reusing its slot.
	pipelined := func(d time.Duration, depth int, submit func(slot int) (waiter, error)) (int, time.Duration, error) {
		ring := make([]waiter, depth)
		var ferr error
		i := 0
		t0 := time.Now()
		calls, _ := spin(d, depth, func() {
			slot := i % depth
			i++
			if ring[slot] != nil {
				if _, err := ring[slot].Wait(); err != nil && ferr == nil {
					ferr = err
				}
			}
			pd, err := submit(slot)
			if err != nil && ferr == nil {
				ferr = err
			}
			ring[slot] = pd
		})
		for _, pd := range ring {
			if pd != nil {
				if _, err := pd.Wait(); err != nil && ferr == nil {
					ferr = err
				}
			}
		}
		return calls, time.Since(t0), ferr
	}

	smalls := make([][]byte, 32)
	for i := range smalls {
		smalls[i] = make([]byte, 512)
	}
	n, el, err = pipelined(l.short, len(smalls), func(slot int) (waiter, error) {
		return submitted(in.ReadAsync(smalls[slot], next(4096)))
	})
	if err != nil {
		return err
	}
	l.rungs["nvmetcp.read_kcmds_per_s"] = float64(n) / 1e3 / el.Seconds()

	// 4 x 256 KiB per command, 4 commands in flight: the shape of the
	// live path's coalesced chunk reads.
	const depth, segsPer = 4, 4
	vec := make([][]nvmetcp.Seg, depth)
	for s := range vec {
		vec[s] = make([]nvmetcp.Seg, segsPer)
		for k := range vec[s] {
			vec[s][k].Dst = make([]byte, defaultChunk)
		}
	}
	aim := func(slot int) []nvmetcp.Seg {
		for k := range vec[slot] {
			vec[slot][k].Off = next(defaultChunk)
		}
		return vec[slot]
	}
	const vecBytes = segsPer * defaultChunk
	n, el, err = pipelined(l.long, depth, func(slot int) (waiter, error) {
		return submitted(in.ReadVecAsync(aim(slot)))
	})
	if err != nil {
		return err
	}
	l.rungs["nvmetcp.readvec_1qp_gib_per_s"] = gibPerS(int64(n)*vecBytes, el)

	grp, err := nvmetcp.NewQPGroup(addr, 2 /* live.Config's default QueuePairs */, nvmetcp.Options{}, nvmetcp.RetryPolicy{}, &metrics.Resilience{})
	if err != nil {
		return err
	}
	defer grp.Close() //nolint:errcheck // in-process teardown
	n, el, err = pipelined(l.long, depth, func(slot int) (waiter, error) {
		return submitted(grp.ReadVecAsync(aim(slot)))
	})
	if err != nil {
		return err
	}
	l.rungs["nvmetcp.qpgroup_gib_per_s"] = gibPerS(int64(n)*vecBytes, el)

	// Server assembly with crc32c: 8 records of 128 KiB per command.
	const recs, recBytes = 8, 128 << 10
	ss := make([][]nvmetcp.SampleSeg, depth)
	for s := range ss {
		ss[s] = make([]nvmetcp.SampleSeg, recs)
		for k := range ss[s] {
			ss[s][k] = nvmetcp.SampleSeg{Dst: make([]byte, nvmetcp.TransformOutLen(nvmetcp.TransformCRC32C, recBytes)), N: recBytes}
		}
	}
	n, el, err = pipelined(l.long, depth, func(slot int) (waiter, error) {
		for k := range ss[slot] {
			ss[slot][k].Off = next(recBytes)
		}
		return submitted(in.ReadSamplesAsync(nvmetcp.TransformCRC32C, ss[slot], nil))
	})
	if err != nil {
		return err
	}
	l.rungs["nvmetcp.readsamples_gib_per_s"] = gibPerS(int64(n)*recs*recBytes, el)

	// The checkpoint shape: 16 x 1 MiB gathered, then a durability barrier.
	wsegs := make([]nvmetcp.WSeg, 16)
	for k := range wsegs {
		wsegs[k] = nvmetcp.WSeg{Src: buf, Off: int64(k) * mib}
	}
	n, el = spin(l.long, 1, func() {
		if _, werr := in.WriteVec(wsegs); werr != nil {
			err = werr
		}
		if ferr := in.Flush(); ferr != nil {
			err = ferr
		}
	})
	if err != nil {
		return err
	}
	l.rungs["nvmetcp.writevec_gib_per_s"] = gibPerS(int64(n)*int64(len(wsegs))*mib, el)

	n, el = spin(l.short, 16, func() {
		if ferr := in.Flush(); ferr != nil {
			err = ferr
		}
	})
	if err != nil {
		return err
	}
	l.rungs["nvmetcp.flush_rtt_us"] = perCallNs(n, el) / 1e3
	return nil
}

// coord times the two collectives a mount uses, between two ranks over
// a three-replica coordinator.
func (l *ladder) coord() error {
	rs := l.rs
	if err := rs.waitLeader(); err != nil {
		return err
	}
	const barriers, gathers, blobBytes = 64, 16, 256 << 10
	var wg sync.WaitGroup
	errs := make([]error, clusterWorld)
	var barrier, gather time.Duration
	for rank := 0; rank < clusterWorld; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cl, err := coord.JoinCluster(rs.peers, rank, clusterWorld, coord.Options{})
			if err != nil {
				errs[rank] = err
				return
			}
			defer cl.Close() //nolint:errcheck // in-process teardown
			if errs[rank] = cl.Barrier("ladder/start"); errs[rank] != nil {
				return
			}
			t0 := time.Now()
			for i := 0; i < barriers && errs[rank] == nil; i++ {
				errs[rank] = cl.Barrier(fmt.Sprintf("ladder/b%d", i))
			}
			t1 := time.Now()
			blob := make([]byte, blobBytes)
			for i := 0; i < gathers && errs[rank] == nil; i++ {
				_, errs[rank] = cl.Allgather(fmt.Sprintf("ladder/g%d", i), blob)
			}
			if rank == 0 {
				barrier, gather = t1.Sub(t0), time.Since(t1)
			}
		}(rank)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	l.rungs["coord.barrier_rtt_us"] = float64(barrier.Microseconds()) / barriers
	l.rungs["coord.allgather_mib_per_s"] = float64(clusterWorld*gathers*blobBytes) / mib / gather.Seconds()
	return nil
}

// peercache times Client.Fetch against a Server whose handler answers
// from memory, so only the peer protocol and the socket are measured.
func (l *ladder) peercache() error {
	payload := make([]byte, clusterSample)
	large := make([]byte, mib)
	srv := peercache.NewServer(func(idx int) ([]byte, error) {
		if idx == 1 {
			return large, nil
		}
		return payload, nil
	}, peercache.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close() //nolint:errcheck // in-process teardown
	cl := peercache.NewClient(addr, peercache.Options{})
	defer cl.Close() //nolint:errcheck // in-process teardown
	dst := make([]byte, mib)
	alloc := func(n int) []byte { return dst[:n] }
	n, el := spin(l.short, 16, func() { _, err = cl.Fetch(0, alloc) })
	if err != nil {
		return err
	}
	l.rungs["peercache.fetch_rtt_us"] = perCallNs(n, el) / 1e3
	n, el = spin(l.long, 1, func() { _, err = cl.Fetch(1, alloc) })
	if err != nil {
		return err
	}
	l.rungs["peercache.fetch_gib_per_s"] = gibPerS(int64(n)*mib, el)
	return nil
}
