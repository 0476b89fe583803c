package live

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"dlfs/internal/bufpool"
	"dlfs/internal/metrics"
	"dlfs/internal/plan"
)

// TestEpochSmallSamplesAllocs pins what the emit path allocates per small
// sample: after one warm-up epoch a whole Fixed(1 KiB) epoch through
// NextBatch and RecycleItems costs at most 0.15 allocations per sample,
// every goroutine's counted (the items slice per batch and the fetch
// groups' bookkeeping; it was 1.2 while bufpool.Put boxed each buffer).
// Pool refills are taken out of the count: the GC may empty a sync.Pool
// at any time, and the race detector makes it drop a quarter of all Puts,
// neither of which is the emit path's doing; bufpool's own test pins that
// a recycled buffer costs nothing.
func TestEpochSmallSamplesAllocs(t *testing.T) {
	if perSample := epochAllocsPerSample(t, 20000, 1<<10); perSample > 0.15 {
		t.Fatalf("%.3f allocations per sample, want <= 0.15", perSample)
	}
}

// TestEpochLargeSamplesAllocs is the twin for samples that land one to a
// buffer (perSampleLanding) in units of a few: here the fetch path's
// per-group and per-command bookkeeping is the whole count. It reads
// 1.40-1.43, and 1.58-1.70 under the race detector, whose dropped Puts
// refill the command and header pools as well; a fetchGroup and a units
// slice allocated per group add 0.5 to either. So a bound per mode, each
// with room over its readings and under readings plus 0.5.
func TestEpochLargeSamplesAllocs(t *testing.T) {
	bound := 1.65
	if raceDetector {
		bound = 1.95
	}
	if perSample := epochAllocsPerSample(t, 600, 96<<10); perSample > bound {
		t.Fatalf("%.3f allocations per sample, want <= %.2f", perSample, bound)
	}
}

// epochAllocsPerSample mounts n Fixed(size) samples on two targets and,
// after one warm-up epoch, counts what a whole epoch allocates per sample.
func epochAllocsPerSample(t *testing.T, n, size int) float64 {
	t.Helper()
	ds := testDS(n, size)
	fs, err := Mount(startTargets(t, 2), ds, Config{ReadCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	drainRecycling(t, fs, 1)
	_, missesBefore, _ := fs.pool.Stats()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if got := drainRecycling(t, fs, 2); got != n {
		t.Fatalf("delivered %d of %d", got, n)
	}
	runtime.ReadMemStats(&after)
	_, missesAfter, _ := fs.pool.Stats()
	refills := missesAfter - missesBefore
	perSample := float64(int64(after.Mallocs-before.Mallocs)-refills) / float64(n)
	t.Logf("%.4f allocs/sample (%d pool refills left out)", perSample, refills)
	return perSample
}

// TestCopyStageObservesStretches: the copy stage is timed per stretch of
// consecutive copies. Over a Fixed(1 KiB) epoch CopyNanos is above zero,
// and the copy histogram holds one observation per stretch: at least one
// per batch, at most one more per fetched unit (a stretch also ends where
// the consumer waits for a unit), and its sum is CopyNanos.
func TestCopyStageObservesStretches(t *testing.T) {
	ds := testDS(6000, 1<<10)
	fs, err := Mount(startTargets(t, 2), ds, Config{StageHistograms: true, ReadCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	ep, err := fs.Sequence(5)
	if err != nil {
		t.Fatal(err)
	}
	batches, samples := int64(0), 0
	for {
		items, ok, err := ep.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		batches++
		samples += len(items)
		fs.RecycleItems(items)
	}
	if samples != ds.Len() {
		t.Fatalf("delivered %d of %d", samples, ds.Len())
	}
	pl := fs.Pipeline().Snapshot()
	if pl.CopyNanos <= 0 {
		t.Fatalf("CopyNanos = %d after an epoch of copied samples", pl.CopyNanos)
	}
	cp := pl.Stages.Copy
	if units := int64(len(fs.unitPlan)); cp.Count < batches || cp.Count > batches+units {
		t.Fatalf("copy histogram holds %d observations for %d batches over %d units", cp.Count, batches, units)
	}
	if cp.Sum != pl.CopyNanos {
		t.Fatalf("copy histogram sums to %d ns, CopyNanos is %d", cp.Sum, pl.CopyNanos)
	}
}

// scriptedEpoch is an Epoch with no fetch pipeline behind it: the test
// plays the workers, putting hand-over units of the given sample counts
// on ready. Sample indices count up from 0.
func scriptedEpoch(cfg Config, skipped int, units ...int) (*Epoch, []*unit) {
	fs := &FS{cfg: cfg.withDefaults(), pipe: &metrics.Pipeline{}, counters: &metrics.Resilience{}, pool: bufpool.New()}
	ep := &Epoch{
		fs:       fs,
		rng:      rand.New(rand.NewSource(1)),
		ready:    make(chan *unit, fs.cfg.Window),
		errCh:    make(chan error, 1),
		degNodes: map[int]struct{}{},
		total:    skipped,
	}
	if skipped > 0 {
		ep.skipped.Store(int64(skipped))
		ep.degNodes[1] = struct{}{}
	}
	var us []*unit
	for _, n := range units {
		u := &unit{samples: make([]plan.Placed, n), assembled: make([][]byte, n)}
		for i := range u.samples {
			u.samples[i] = plan.Placed{Sample: ep.total, Len: 8}
			u.assembled[i] = fs.alloc(8)
			ep.total++
		}
		us = append(us, u)
	}
	return ep, us
}

// TestNextBatchRefillEdges is the window refill's edge cases as one
// table. Each case feeds a scripted epoch from a goroutine playing the
// workers (units in order, then close, as pump does) and states the
// batch sizes, the error of the final call, and that every call after it
// returns nil, false, nil.
func TestNextBatchRefillEdges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		skipped int
		units   []int
		want    []int // successive batch sizes
	}{
		{"window of one", Config{Window: 1, BatchSize: 4}, 0, []int{3, 1, 5}, []int{4, 4, 1}},
		{"batch larger than the epoch", Config{BatchSize: 1 << 40}, 0, []int{2, 3}, []int{5}},
		{"batch size divides the epoch", Config{BatchSize: 3}, 0, []int{4, 2}, []int{3, 3}},
		{"more units than the window", Config{Window: 2, BatchSize: 5}, 0, []int{1, 1, 1, 1, 1, 1, 1}, []int{5, 2}},
		{"empty epoch", Config{}, 0, nil, nil},
		{"degraded", Config{Window: 2, BatchSize: 4}, 7, []int{2, 3}, []int{4, 1}},
		{"degraded, nothing delivered", Config{}, 7, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep, units := scriptedEpoch(tc.cfg, tc.skipped, tc.units...)
			go func() {
				for _, u := range units {
					ep.ready <- u
				}
				close(ep.ready)
			}()
			seen := make(map[int]bool)
			for call, want := range tc.want {
				items, ok, err := ep.NextBatch()
				if err != nil || !ok || len(items) != want {
					t.Fatalf("call %d: %d items, ok=%v, err=%v; want %d items", call, len(items), ok, err, want)
				}
				if cap(items) > ep.total {
					t.Fatalf("call %d: items sized %d for an epoch of %d", call, cap(items), ep.total)
				}
				for _, it := range items {
					if seen[it.Index] || it.Data == nil {
						t.Fatalf("call %d: sample %d delivered twice or without its buffer", call, it.Index)
					}
					seen[it.Index] = true
				}
				ep.fs.RecycleItems(items)
			}
			items, ok, err := ep.NextBatch()
			if items != nil || ok {
				t.Fatalf("final call: %d items, ok=%v", len(items), ok)
			}
			var de *DegradedError
			switch {
			case tc.skipped == 0 && err != nil:
				t.Fatalf("final call: %v", err)
			case tc.skipped > 0 && (!errors.As(err, &de) || de.Samples != tc.skipped || len(de.Nodes) != 1):
				t.Fatalf("final call: err = %v, want a *DegradedError for %d samples on one node", err, tc.skipped)
			}
			for i := 0; i < 2; i++ {
				if items, ok, err := ep.NextBatch(); items != nil || ok || err != nil {
					t.Fatalf("after the end: %d items, ok=%v, err=%v", len(items), ok, err)
				}
			}
			if len(seen) != ep.total-tc.skipped {
				t.Fatalf("delivered %d of %d", len(seen), ep.total-tc.skipped)
			}
			if ep.fs.pipe.CopyNanos.Load() != 0 {
				t.Fatal("a hand-over epoch booked copy time")
			}
		})
	}
}

// TestNextBatchSeesFetchError: a fetch error that arrives while units are
// still resident is returned by the next call that refills the window,
// with whatever that call had emitted before it looked, and by every call
// after it.
func TestNextBatchSeesFetchError(t *testing.T) {
	boom := errors.New("boom")

	t.Run("between calls", func(t *testing.T) {
		ep, units := scriptedEpoch(Config{Window: 4, BatchSize: 2}, 0, 3)
		ep.ready <- units[0]
		if items, ok, err := ep.NextBatch(); len(items) != 2 || !ok || err != nil {
			t.Fatalf("first call: %d items, ok=%v, err=%v", len(items), ok, err)
		}
		ep.errCh <- boom // one sample of the unit is still resident
		for call := 0; call < 2; call++ {
			if items, ok, err := ep.NextBatch(); len(items) != 0 || ok || err != boom {
				t.Fatalf("call %d after the error: %d items, ok=%v, err=%v", call, len(items), ok, err)
			}
		}
	})

	t.Run("window full", func(t *testing.T) {
		// A full window is not refilled, so the error waits for the call
		// in which a unit runs out, and that call keeps what it emitted.
		ep, units := scriptedEpoch(Config{Window: 1, BatchSize: 2}, 0, 3)
		ep.ready <- units[0]
		if items, ok, err := ep.NextBatch(); len(items) != 2 || !ok || err != nil {
			t.Fatalf("first call: %d items, ok=%v, err=%v", len(items), ok, err)
		}
		ep.errCh <- boom
		if items, ok, err := ep.NextBatch(); len(items) != 1 || ok || err != boom {
			t.Fatalf("second call: %d items, ok=%v, err=%v", len(items), ok, err)
		}
	})

	t.Run("while the consumer waits", func(t *testing.T) {
		ep, units := scriptedEpoch(Config{Window: 4, BatchSize: 4}, 0, 2)
		ep.ready <- units[0]
		got := make(chan error, 1)
		go func() {
			items, ok, err := ep.NextBatch()                // emits 2, then waits on an open ready
			if (len(items) != 2 && len(items) != 0) || ok { // 0: the error overtook the unit
				t.Errorf("%d items, ok=%v", len(items), ok)
			}
			got <- err
		}()
		ep.errCh <- boom
		if err := <-got; err != boom {
			t.Fatalf("err = %v", err)
		}
	})
}
