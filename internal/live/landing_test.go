package live

import (
	"math/rand"
	"testing"

	"dlfs/internal/dataset"
)

// smallLarge draws 1 KiB samples with, one time in five, a 200 KiB one:
// runs of small samples share a chunk unit that lands in the arena, a
// large sample is a unit (or most of one) that lands per sample.
type smallLarge struct{}

func (smallLarge) Name() string { return "small-large" }

func (smallLarge) SampleSize(rng *rand.Rand) int {
	if rng.Intn(5) == 0 {
		return 200 << 10
	}
	return 1 << 10
}

// exactlyOnce drains one verified epoch and fails unless every sample
// of ds was delivered exactly once.
func exactlyOnce(t *testing.T, fs *FS, ds *dataset.Dataset, seed int64) {
	t.Helper()
	ep, err := fs.Sequence(seed)
	if err != nil {
		t.Fatal(err)
	}
	items, err := ep.Drain()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, ds.Len())
	for _, it := range items {
		if seen[it.Index] {
			t.Fatalf("epoch %d delivered sample %d twice", seed, it.Index)
		}
		seen[it.Index] = true
		if len(it.Data) != ds.Samples[it.Index].Size || dataset.ChecksumBytes(it.Data) != ds.Checksum(it.Index) {
			t.Fatalf("epoch %d: sample %d corrupt", seed, it.Index)
		}
	}
	if len(items) != ds.Len() {
		t.Fatalf("epoch %d delivered %d of %d", seed, len(items), ds.Len())
	}
	fs.RecycleItems(items)
}

// TestMixedLandingEpoch: over a seeded mix of 1 KiB and 200 KiB samples
// one coalesced group carries units of both landings, arena chunks and
// per-sample pool buffers, in a single command. The epoch is byte-exact
// and exactly-once cold, and warm out of the lookahead store, where a
// round parks each kind in its own form and the next epoch needs no wire
// read.
func TestMixedLandingEpoch(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Label: "live", Seed: 31, NumSamples: 600, Dist: smallLarge{}})
	total := datasetBytes(ds)

	t.Run("cold", func(t *testing.T) {
		fs, err := Mount(startTargets(t, 2), ds, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close() //nolint:errcheck
		// The coalescer's own groups for seed 1: at least one must mix.
		units := fs.epochUnits(1, 0, 1, 0, -1)
		work := make(chan *fetchGroup, len(units))
		fs.dispatch(units, work, nil)
		close(work)
		arena, perSample, mixed := 0, 0, 0
		for g := range work {
			n := 0
			for _, u := range g.units {
				if fs.perSample(u) {
					n++
				}
			}
			perSample += n
			arena += len(g.units) - n
			if n > 0 && n < len(g.units) {
				mixed++
			}
		}
		if arena == 0 || perSample == 0 || mixed == 0 {
			t.Fatalf("the mix does not exercise both landings: %d arena units, %d per-sample units, %d mixed groups", arena, perSample, mixed)
		}
		for seed := int64(1); seed <= 3; seed++ {
			before := fs.Pipeline().Snapshot()
			exactlyOnce(t, fs, ds, seed)
			after := fs.Pipeline().Snapshot()
			if wire := after.WireBytes - before.WireBytes; wire != total {
				t.Fatalf("epoch %d moved %d wire bytes for %d sample bytes", seed, wire, total)
			}
			if after.CopyNanos == before.CopyNanos {
				t.Fatalf("epoch %d: no copy stage ran, the small samples took the wrong landing", seed)
			}
		}
		if fs.arena.Arena().InUse() != 0 {
			t.Fatalf("%d arena chunks still held after the epochs", fs.arena.Arena().InUse())
		}
	})

	t.Run("warm", func(t *testing.T) {
		budget := total + 1<<20
		fs, err := Mount(startTargets(t, 2), ds, Config{CrossEpochPrefetch: true, PrefetchBudgetBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close() //nolint:errcheck
		for seed := int64(1); seed <= 4; seed++ {
			before := fs.Pipeline().Snapshot()
			exactlyOnce(t, fs, ds, seed)
			after := fs.Pipeline().Snapshot()
			if n := after.WireReads - before.WireReads; n > 0 && seed > 1 {
				t.Fatalf("warm epoch %d issued %d wire reads", seed, n)
			}
			if seed > 1 && after.PrefetchHitBytes-before.PrefetchHitBytes != total {
				t.Fatalf("warm epoch %d took %d of %d bytes from the store", seed, after.PrefetchHitBytes-before.PrefetchHitBytes, total)
			}
			fs.WaitPrefetch()
			if rb := fs.prefetch.residentBytes(); rb != total || rb > budget {
				t.Fatalf("after round %d the store holds %d bytes, want the epoch's %d (budget %d)", seed, rb, total, budget)
			}
		}
		if ev := fs.Pipeline().Snapshot().PrefetchEvictions; ev != 0 {
			t.Fatalf("%d evictions", ev)
		}
	})
}

// TestLargeSamplesLandOnce: every unit of a Fixed(128 KiB) dataset lands
// per sample, so an epoch never runs the copy stage, never takes an arena
// chunk, and still moves exactly the samples' bytes.
func TestLargeSamplesLandOnce(t *testing.T) {
	ds := testDS(96, 128<<10)
	fs, err := Mount(startTargets(t, 2), ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	for seed := int64(1); seed <= 2; seed++ {
		exactlyOnce(t, fs, ds, seed)
	}
	pl := fs.Pipeline().Snapshot()
	if pl.CopyNanos != 0 {
		t.Fatalf("CopyNanos = %d: a large sample went through the copy stage", pl.CopyNanos)
	}
	if peak := fs.arena.Arena().PeakInUse(); peak != 0 {
		t.Fatalf("the arena peaked at %d chunks, want it untouched", peak)
	}
	if want := 2 * datasetBytes(ds); pl.WireBytes != want {
		t.Fatalf("moved %d wire bytes for %d sample bytes", pl.WireBytes, want)
	}
}
