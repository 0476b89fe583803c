package live

import (
	"testing"

	"dlfs/internal/dataset"
	"dlfs/internal/trace"
)

// TestReadSampleHitPathAllocs pins the allocator behaviour of the warm
// hit path: with observability off (the default) a cached ReadSample
// and the Recycle of its buffer allocate nothing, and turning stage
// histograms on adds nothing — the histogram write is two atomic adds,
// and the only new work is the pair of clock reads.
func TestReadSampleHitPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		hist bool
		max  float64
	}{
		{"disabled", false, 0},
		{"enabled", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := startTargets(t, 1)
			ds := testDS(32, 4<<10)
			fs, err := Mount(addrs, ds, Config{StageHistograms: tc.hist})
			if err != nil {
				t.Fatal(err)
			}
			defer fs.Close() //nolint:errcheck
			for i := 0; i < ds.Len(); i++ {
				got, err := fs.ReadSample(i)
				if err != nil {
					t.Fatal(err)
				}
				fs.Recycle(got)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				got, err := fs.ReadSample(i % ds.Len())
				if err != nil {
					t.Fatal(err)
				}
				fs.Recycle(got)
				i++
			})
			if fs.CacheHits() == 0 {
				t.Fatal("measured loop never hit the cache")
			}
			if allocs > tc.max {
				t.Fatalf("hit path: %.1f allocs/op, want <= %.0f", allocs, tc.max)
			}
			if tc.hist {
				st := fs.Stats()
				if st.Pipeline.Stages == nil || st.Pipeline.Stages.Read.Count == 0 {
					t.Fatal("histograms enabled but read stage recorded nothing")
				}
			}
		})
	}
}

// TestLiveWallTracePairing runs a real epoch with the wall recorder
// attached and checks the event stream tells a coherent story: every
// posted fetch unit completes, every emitted sample and freed unit
// references a completed unit, and the per-unit timeline is ordered
// post <= complete <= emit <= free.
func TestLiveWallTracePairing(t *testing.T) {
	addrs := startTargets(t, 2)
	const samples = 150
	ds := testDS(samples, 2000)
	rec := trace.NewWall(1 << 16)
	fs, err := Mount(addrs, ds, Config{ChunkSize: 16 << 10, Trace: rec, StageHistograms: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	ep, err := fs.Sequence(5)
	if err != nil {
		t.Fatal(err)
	}
	items, err := ep.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != samples {
		t.Fatalf("delivered %d of %d", len(items), samples)
	}
	for _, it := range items {
		if dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("sample %d corrupt with tracing on", it.Index)
		}
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%d events dropped under the bound", rec.Dropped())
	}

	type unitTrace struct {
		post, complete, lastEmit, free int64
		posted, completed, freed       bool
		emits                          int
	}
	units := map[int]*unitTrace{}
	get := func(seq int) *unitTrace {
		u := units[seq]
		if u == nil {
			u = &unitTrace{}
			units[seq] = u
		}
		return u
	}
	totalEmits := 0
	for _, ev := range rec.Events() {
		if ev.Nanos < 0 {
			t.Fatalf("negative event offset %d", ev.Nanos)
		}
		u := get(ev.Unit)
		switch ev.Kind {
		case trace.KindPost:
			if u.posted {
				t.Fatalf("unit %d posted twice", ev.Unit)
			}
			u.posted, u.post = true, ev.Nanos
			if ev.Bytes <= 0 {
				t.Fatalf("unit %d posted with %d bytes", ev.Unit, ev.Bytes)
			}
		case trace.KindComplete:
			if u.completed {
				t.Fatalf("unit %d completed twice", ev.Unit)
			}
			u.completed, u.complete = true, ev.Nanos
		case trace.KindEmit:
			u.emits++
			totalEmits++
			if ev.Nanos > u.lastEmit {
				u.lastEmit = ev.Nanos
			}
		case trace.KindFree:
			if u.freed {
				t.Fatalf("unit %d freed twice", ev.Unit)
			}
			u.freed, u.free = true, ev.Nanos
		}
	}
	if len(units) == 0 {
		t.Fatal("no units traced")
	}
	if totalEmits != samples {
		t.Fatalf("traced %d emits for %d samples", totalEmits, samples)
	}
	for seq, u := range units {
		if !u.posted || !u.completed {
			t.Fatalf("unit %d: posted=%v completed=%v", seq, u.posted, u.completed)
		}
		if !u.freed {
			t.Fatalf("unit %d never freed", seq)
		}
		if u.emits == 0 {
			t.Fatalf("unit %d emitted no samples", seq)
		}
		if u.complete < u.post {
			t.Fatalf("unit %d completed at %d before post at %d", seq, u.complete, u.post)
		}
		if u.lastEmit < u.complete {
			t.Fatalf("unit %d emitted at %d before completion at %d", seq, u.lastEmit, u.complete)
		}
		if u.free < u.lastEmit {
			t.Fatalf("unit %d freed at %d before last emit at %d", seq, u.free, u.lastEmit)
		}
	}
	// The summary sees the same pairing.
	sum := rec.Summarize()
	if sum.Counts[trace.KindPost] != len(units) || sum.Counts[trace.KindComplete] != len(units) {
		t.Fatalf("summary counts %v for %d units", sum.Counts, len(units))
	}
	if sum.FetchMax <= 0 {
		t.Fatal("fetch latency not measured")
	}
}
