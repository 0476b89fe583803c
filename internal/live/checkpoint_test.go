package live

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dlfs/internal/chaos"
	"dlfs/internal/nvmetcp"
)

// ckptState builds a deterministic pseudo-random state blob so torn or
// misplaced shards cannot slip past a byte comparison.
func ckptState(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b) //nolint:errcheck
	return b
}

func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(40, 2000)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ck, err := fs.Checkpointer(CheckpointConfig{ShardBytes: 64 << 10, RankRegionBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("fresh region Load = %v, want ErrNoCheckpoint", err)
	}

	// Three saves walk both double-buffer slots (0, 1, 0 — saves
	// alternate regardless of step numbering); each Load must return the
	// newest committed state byte-exact.
	for step := uint64(1); step <= 3; step++ {
		state := ckptState(int64(step), 1<<20+12345*int(step))
		if err := ck.Save(step, state); err != nil {
			t.Fatalf("save step %d: %v", step, err)
		}
		got, gotStep, err := ck.Load()
		if err != nil {
			t.Fatalf("load after step %d: %v", step, err)
		}
		if gotStep != step {
			t.Fatalf("loaded step %d, want %d", gotStep, step)
		}
		if !bytes.Equal(got, state) {
			t.Fatalf("step %d state diverged after round trip", step)
		}
		fs.Recycle(got)
	}

	st := fs.Stats()
	if st.Pipeline.CkptSaves != 3 {
		t.Fatalf("CkptSaves = %d, want 3", st.Pipeline.CkptSaves)
	}
	if st.Pipeline.CkptWriteCmds < 3 || st.Pipeline.CkptWriteSegs <= st.Pipeline.CkptWriteCmds {
		t.Fatalf("gathered accounting off: %d cmds / %d segs", st.Pipeline.CkptWriteCmds, st.Pipeline.CkptWriteSegs)
	}
	if st.Pipeline.CkptFlushes < 3 {
		t.Fatalf("CkptFlushes = %d, want >= 3 (data + manifest barriers)", st.Pipeline.CkptFlushes)
	}
	if st.Pipeline.CkptDowngrades != 0 {
		t.Fatalf("downgrades on a current-protocol target: %d", st.Pipeline.CkptDowngrades)
	}
}

// TestCheckpointLegacyTargetDowngrades mounts against targets that
// reject opWriteVec and opFlush (rolling upgrade): saves must still
// succeed through per-extent opWrite, latch the downgrade, and load
// back byte-exact.
func TestCheckpointLegacyTargetDowngrades(t *testing.T) {
	_, addrs, _ := startLegacyTargets(t, 2)
	ds := testDS(20, 1500)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ck, err := fs.Checkpointer(CheckpointConfig{ShardBytes: 32 << 10, RankRegionBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	state := ckptState(77, 700<<10)
	if err := ck.Save(1, state); err != nil {
		t.Fatalf("save against legacy targets: %v", err)
	}
	got, step, err := ck.Load()
	if err != nil || step != 1 {
		t.Fatalf("load after legacy save: step %d, %v", step, err)
	}
	if !bytes.Equal(got, state) {
		t.Fatal("legacy-path state diverged")
	}
	fs.Recycle(got)
	if fs.Stats().Pipeline.CkptDowngrades < 1 {
		t.Fatal("no downgrade latched against legacy targets")
	}
	// The latch sticks: a second save goes straight to the plain path
	// and still round-trips.
	state2 := ckptState(78, 900<<10)
	if err := ck.Save(2, state2); err != nil {
		t.Fatalf("second legacy save: %v", err)
	}
	got2, step2, err := ck.Load()
	if err != nil || step2 != 2 {
		t.Fatalf("second legacy load: step %d, %v", step2, err)
	}
	if !bytes.Equal(got2, state2) {
		t.Fatal("second legacy state diverged")
	}
	fs.Recycle(got2)
}

// TestCheckpointDetectsCorruption flips one committed data byte out of
// band and requires Load to refuse the checkpoint rather than hand back
// silently wrong state.
func TestCheckpointDetectsCorruption(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(10, 1000)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	const base = 128 << 20 // explicit region base makes shard offsets deterministic
	ck, err := fs.Checkpointer(CheckpointConfig{ShardBytes: 64 << 10, BaseOffset: base, RankRegionBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	state := ckptState(5, 500<<10)
	if err := ck.Save(1, state); err != nil {
		t.Fatal(err)
	}

	// Shard 0 of step 1 (the first save lands in slot 0) lives on
	// target 0 just past the manifest reserve. Flip a byte through a raw
	// connection.
	in, err := nvmetcp.Connect(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	off := int64(base) + ckptManifestReserve + 100
	evil := make([]byte, 1)
	if _, err := in.ReadAt(evil, off); err != nil {
		t.Fatal(err)
	}
	evil[0] ^= 0xFF
	if _, err := in.WriteAt(evil, off); err != nil {
		t.Fatal(err)
	}

	if _, _, err := ck.Load(); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("Load over flipped byte = %v, want ErrCheckpointCorrupt", err)
	}
}

// TestChaosCheckpointSurvivesTargetKill is the durability acceptance
// case: every live connection to both targets is severed repeatedly
// while a checkpoint save streams. The reconnectors must resubmit the
// idempotent fixed-offset writes, the save must report success only
// once data and manifest are flushed, and a post-kill load must return
// the state byte-exact.
func TestChaosCheckpointSurvivesTargetKill(t *testing.T) {
	addrs, proxies := startChaosTargets(t, 2, func(i int) chaos.Config {
		return chaos.Config{Seed: int64(i) + 40}
	})
	ds := testDS(30, 1500)
	fs, err := Mount(addrs, ds, Config{
		RequestTimeout: 2 * time.Second,
		DialTimeout:    2 * time.Second,
		// The retry budget must outlast the kill burst below: 30
		// attempts backing off to 20 ms span >500 ms of retrying,
		// several times the burst window, so a command severed on
		// every early attempt still lands once the beam stops.
		MaxRetries:       30,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    20 * time.Millisecond,
		BreakerThreshold: 1000, // kills are transient; never trip
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ck, err := fs.Checkpointer(CheckpointConfig{ShardBytes: 32 << 10, RankRegionBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// A committed step-1 checkpoint that the chaos below must not harm.
	prev := ckptState(100, 1<<20)
	if err := ck.Save(1, prev); err != nil {
		t.Fatal(err)
	}

	// Sever connections while the step-2 save streams its ~6 MiB of
	// shards (192 gathered extents across both targets). The killer
	// stops after a fixed kill budget: under the race detector a single
	// reconnect + batch writev can take longer than the 2 ms kill
	// period, and a perpetual beam would then sever every attempt
	// mid-flight until the retry budget exhausts — a test livelock, not
	// a durability failure. A bounded burst still forces dozens of
	// reconnects and idempotent resubmissions.
	state := ckptState(101, 6<<20)
	stop := make(chan struct{})
	killed := make(chan int, 1)
	go func() {
		kills := 0
		for {
			select {
			case <-stop:
				killed <- kills
				return
			case <-time.After(2 * time.Millisecond):
				for _, p := range proxies {
					kills += p.KillActive()
				}
				if kills >= 60 {
					killed <- kills
					return
				}
			}
		}
	}()
	err = ck.Save(2, state)
	close(stop)
	kills := <-killed
	if err != nil {
		t.Fatalf("save under connection kills: %v (after %d kills)", err, kills)
	}
	if kills == 0 {
		t.Skip("save finished before any connection could be killed")
	}

	got, step, err := ck.Load()
	if err != nil {
		t.Fatalf("load after chaos save: %v", err)
	}
	if step != 2 {
		t.Fatalf("loaded step %d, want 2", step)
	}
	if !bytes.Equal(got, state) {
		t.Fatal("post-kill read-back diverged from the saved state")
	}
	fs.Recycle(got)
	if st := fs.Stats(); st.Resilience.Reconnects < 1 {
		t.Fatalf("save survived %d kills with no reconnects recorded: %s", kills, st.Resilience)
	} else {
		t.Logf("killed %d connections mid-save; stats: %s; pipeline: %s", kills, st.Resilience, st.Pipeline)
	}
}

// TestCheckpointNoDataCRC exercises the CRC-less save mode: round
// trips must stay byte-exact, manifests must carry the no-CRC magic,
// and — the structural crash-consistency guarantee — starting a save
// must immediately void the slot it writes into, so a crash mid-save
// can only ever fall back to the other slot's committed checkpoint.
func TestCheckpointNoDataCRC(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(10, 1000)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	const base = 128 << 20
	ck, err := fs.Checkpointer(CheckpointConfig{
		ShardBytes: 64 << 10, BaseOffset: base, RankRegionBytes: 8 << 20, NoDataCRC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := uint64(1); step <= 2; step++ {
		state := ckptState(int64(step), 600<<10+int(step))
		if err := ck.Save(step, state); err != nil {
			t.Fatalf("save step %d: %v", step, err)
		}
		got, gotStep, err := ck.Load()
		if err != nil || gotStep != step {
			t.Fatalf("load after step %d: step %d, %v", step, gotStep, err)
		}
		if !bytes.Equal(got, state) {
			t.Fatalf("no-CRC state diverged at step %d", step)
		}
		fs.Recycle(got)
	}

	// Both slots should now hold DLCN manifests.
	for s := int64(0); s < 2; s++ {
		m, err := ck.readManifest(base + s*(int64(8<<20)/2))
		if err != nil {
			t.Fatalf("slot %d manifest: %v", s, err)
		}
		if m.hasCRC {
			t.Fatalf("slot %d manifest claims a data CRC under NoDataCRC", s)
		}
	}

	// Invalidate-first: simulate a save torn right after its void-the-
	// manifest prefix by zeroing the newest slot's manifest the way Save
	// does (step 2 landed in slot 1), then scribbling over its data.
	// Load must not trust the torn slot — it falls back to step 1 in the
	// other slot.
	in, err := nvmetcp.Connect(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close() //nolint:errcheck
	slot1 := int64(base) + int64(8<<20)/2
	if _, err := in.WriteAt(make([]byte, ckptManifestSize), slot1); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xEE}, 64<<10)
	if _, err := in.WriteAt(junk, slot1+ckptManifestReserve); err != nil {
		t.Fatal(err)
	}
	got, gotStep, err := ck.Load()
	if err != nil {
		t.Fatalf("load after torn slot: %v", err)
	}
	if gotStep != 1 {
		t.Fatalf("load after torn slot returned step %d, want fallback to 1", gotStep)
	}
	if !bytes.Equal(got, ckptState(1, 600<<10+1)) {
		t.Fatal("fallback state diverged")
	}
	fs.Recycle(got)

	// A mixed region still restores: a CRC'd save over slot 1 commits a
	// DLCK manifest next to slot 0's DLCN one, and Load picks the newest.
	ck2, err := fs.Checkpointer(CheckpointConfig{
		ShardBytes: 64 << 10, BaseOffset: base, RankRegionBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	state3 := ckptState(3, 600<<10+3)
	if err := ck2.Save(3, state3); err != nil {
		t.Fatal(err)
	}
	got3, step3, err := ck.Load()
	if err != nil || step3 != 3 {
		t.Fatalf("mixed-mode load: step %d, %v", step3, err)
	}
	if !bytes.Equal(got3, state3) {
		t.Fatal("mixed-mode state diverged")
	}
	fs.Recycle(got3)
	m, err := ck.readManifest(slot1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.hasCRC {
		t.Fatal("CRC'd save did not record a data CRC")
	}
}

// TestCheckpointSameParityStepsAlternateSlots is the regression test
// for the slot-selection bug: slots used to be keyed on step%2, so a
// same-parity cadence — Save(1000), Save(2000), Save(3000), the normal
// every-N-steps pattern — reused one slot for every save, overwriting
// the only previous committed checkpoint before the new manifest
// landed. Saves must alternate slots regardless of step numbering,
// a restarted rank must resume the alternation from the on-target
// manifests, and a corrupted newest slot must make Load fall back to
// the older slot's intact checkpoint instead of failing.
func TestCheckpointSameParityStepsAlternateSlots(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(10, 1000)
	fs, err := Mount(addrs, ds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	const base = 128 << 20
	cfg := CheckpointConfig{ShardBytes: 64 << 10, BaseOffset: base, RankRegionBytes: 8 << 20}
	ck, err := fs.Checkpointer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	state2000 := ckptState(2, 500<<10+7)
	if err := ck.Save(1000, ckptState(1, 500<<10)); err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(2000, state2000); err != nil {
		t.Fatal(err)
	}
	m0, err := ck.readManifest(ck.slotBase(0))
	if err != nil {
		t.Fatalf("slot 0 manifest after two even-step saves: %v", err)
	}
	m1, err := ck.readManifest(ck.slotBase(1))
	if err != nil {
		t.Fatalf("slot 1 manifest after two even-step saves: %v", err)
	}
	if m0.step != 1000 || m1.step != 2000 {
		t.Fatalf("slots hold steps %d/%d, want 1000/2000: same-parity saves did not alternate", m0.step, m1.step)
	}

	// A restarted rank (fresh Checkpointer over the same region) must
	// derive the slot from the manifests and replace step 1000 — not
	// reset to a fixed slot and clobber the newest save.
	ck2, err := fs.Checkpointer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck2.Save(3000, ckptState(3, 500<<10+9)); err != nil {
		t.Fatal(err)
	}
	m0, err = ck.readManifest(ck.slotBase(0))
	if err != nil {
		t.Fatal(err)
	}
	m1, err = ck.readManifest(ck.slotBase(1))
	if err != nil {
		t.Fatal(err)
	}
	if m0.step != 3000 || m1.step != 2000 {
		t.Fatalf("slots hold steps %d/%d after restart save, want 3000/2000", m0.step, m1.step)
	}

	// Corrupt the newest slot's data out of band: Load must fall back
	// to step 2000 in the other slot, byte-exact, rather than surface
	// ErrCheckpointCorrupt while an intact checkpoint exists.
	in, err := nvmetcp.Connect(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()                              //nolint:errcheck
	off := int64(base) + ckptManifestReserve + 50 // shard 0 of slot 0, target 0
	evil := make([]byte, 1)
	if _, err := in.ReadAt(evil, off); err != nil {
		t.Fatal(err)
	}
	evil[0] ^= 0xFF
	if _, err := in.WriteAt(evil, off); err != nil {
		t.Fatal(err)
	}
	got, step, err := ck.Load()
	if err != nil {
		t.Fatalf("load with corrupt newest slot: %v, want fallback to the intact slot", err)
	}
	if step != 2000 {
		t.Fatalf("fallback load returned step %d, want 2000", step)
	}
	if !bytes.Equal(got, state2000) {
		t.Fatal("fallback state diverged")
	}
	fs.Recycle(got)
}
