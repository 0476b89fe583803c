package main

import (
	"fmt"
	"time"

	"dlfs/internal/blockdev"
	"dlfs/internal/dataset"
	"dlfs/internal/live"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
)

// storeCapacity is each in-process target's addressable size. Extents
// are allocated on first write, so only written bytes cost memory.
const storeCapacity = 8 << 30

// params is what the command line fixes for a run.
type params struct {
	seed    int64   // derives the dataset, every epoch order and every permutation
	seconds float64 // length of the measured window
	scale   float64 // shrinks datasets and state (tests only; 1 everywhere else)
}

// scaled applies -scale to a sample or byte count, keeping at least min.
func (p params) scaled(n, min int) int {
	if v := int(float64(n) * p.scale); v > min {
		return v
	}
	return min
}

// shortened cuts a count or a duration that only steadies a measurement
// (warm-up units, rung lengths) when -scale asks for a quick run.
func shortened[T int | time.Duration](p params, v, quick T) T {
	if p.scale < 1 {
		return quick
	}
	return v
}

// opts selects which configuration of a workload a set-up builds.
type opts struct {
	traced  bool // stage histograms on client and targets, wall recorder on
	variant bool // the workload's reference variant (see workload.variant)
}

// run is the state shared by every set-up of one workload in one
// process.
type run struct {
	params
	rec *recorder
	cal *calibrator
	crc []uint32 // expected CRC32C per sample, computed once, outside every timed region
	c   *corpus  // the corpus generated last, for the ladder's directory and plan rungs
}

// corpus is a generated dataset and the checksums its samples must
// have when they come back.
type corpus struct {
	ds    *dataset.Dataset
	crc   []uint32
	bytes int64
}

// corpus generates the workload's dataset and reports how long
// generation took. dataset.Dataset.Checksum regenerates a sample's
// content on every call, so the expected checksums are computed here,
// once per run and untimed, never in a measured loop.
func (r *run) corpus(label string, samples int, dist dataset.SizeDist) (*corpus, time.Duration) {
	t0 := time.Now()
	ds := dataset.Generate(dataset.Config{Label: label, Seed: r.seed, NumSamples: samples, Dist: dist})
	gen := time.Since(t0)
	if r.crc == nil {
		r.crc = make([]uint32, ds.Len())
		var buf []byte
		for i := range r.crc {
			if n := ds.Samples[i].Size; n > cap(buf) {
				buf = make([]byte, n)
			}
			b := buf[:ds.Samples[i].Size]
			ds.FillContent(i, b)
			r.crc[i] = dataset.ChecksumBytes(b)
		}
	}
	r.c = &corpus{ds: ds, crc: r.crc, bytes: ds.TotalBytes()}
	return r.c, gen
}

// checker verifies one pass over a corpus: every byte against the
// expected checksum and every sample exactly once.
type checker struct {
	c    *corpus
	seen []uint64
	got  int
}

func newChecker(c *corpus) *checker {
	return &checker{c: c, seen: make([]uint64, (c.ds.Len()+63)/64)}
}

func (k *checker) reset() {
	clear(k.seen)
	k.got = 0
}

// item reports whether a delivered sample is intact and new this pass.
func (k *checker) item(idx int, data []byte) bool {
	if idx < 0 || idx >= len(k.c.crc) || dataset.ChecksumBytes(data) != k.c.crc[idx] {
		return false
	}
	w, bit := idx/64, uint64(1)<<(idx%64)
	if k.seen[w]&bit != 0 {
		return false
	}
	k.seen[w] |= bit
	k.got++
	return true
}

// missing reports how many samples the pass never delivered intact.
func (k *checker) missing() int { return k.c.ds.Len() - k.got }

// targets is a set of in-process nvmetcp targets on loopback.
type targets struct {
	tgts  []*nvmetcp.Target
	addrs []string
}

func startTargets(n int, o opts) (*targets, error) {
	t := &targets{}
	for i := 0; i < n; i++ {
		tgt := nvmetcp.NewTargetConfig(blockdev.New(storeCapacity), nvmetcp.Config{StageHistograms: o.traced})
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			t.close()
			return nil, fmt.Errorf("target %d: %w", i, err)
		}
		t.tgts = append(t.tgts, tgt)
		t.addrs = append(t.addrs, addr)
	}
	return t, nil
}

func (t *targets) close() {
	for _, tgt := range t.tgts {
		tgt.Close() //nolint:errcheck // in-process teardown
	}
}

// counters is every always-on counter the system exposes, summed over
// the mounts and targets of an environment.
type counters struct {
	Pipe metrics.PipelineSnapshot
	Res  metrics.ResilienceSnapshot
	Srv  metrics.ServerSnapshot
	Cmds int64 // commands the targets completed
}

func (c *counters) addFS(fs *live.FS) {
	st := fs.Stats()
	addInts(&c.Pipe, &st.Pipeline, 1)
	addInts(&c.Res, &st.Resilience, 1)
}

func (c *counters) addTargets(t *targets) {
	for _, tgt := range t.tgts {
		ss := tgt.ServerStats()
		addInts(&c.Srv, &ss, 1)
		cmds, _ := tgt.Served()
		c.Cmds += cmds
	}
}

// wireBytes is the payload pulled from targets on the read side:
// foreground fetches, cross-epoch prefetch rounds and ReadSample misses.
func (c counters) wireBytes() int64 {
	return c.Pipe.WireBytes + c.Pipe.PrefetchedBytes + c.Pipe.OriginBytes
}

// setupStats times one set-up: dataset generation + target start +
// Mount until the mount returns.
type setupStats struct {
	total    time.Duration
	generate time.Duration
	mount    time.Duration
	uploaded int64 // sample bytes the mount wrote to the targets
	samples  int
	mnt      metrics.MountSnapshot // cluster mounts only, slowest rank
}

// unitStats is one measured unit of a workload: an epoch, a slice of
// point reads, or a cluster's scan pass.
type unitStats struct {
	bytes   int64
	samples int64
	cpu     float64       // process CPU seconds spent while the unit ran
	ended   time.Time     // when the unit returned
	ref     reference     // raw loopback around the unit: the mean of the bursts either side
	consume time.Duration // the window the consumer is served in: Sequence to last batch, or the slowest client's pass
	cycle   time.Duration // consume plus what the consumer must wait for before the next unit: WaitPrefetch, a remount

	sequence     time.Duration // inside consume: the Sequence call
	firstBatch   time.Duration // inside consume: Sequence to the first batch in hand
	prefetchWait time.Duration // inside cycle: the WaitPrefetch call
	setup        setupStats    // cluster-peers: the remount this unit began with
}

// env is a mounted workload ready to run units.
type env interface {
	unit(parent int32) (unitStats, error)
	counters() counters
	close()
}
