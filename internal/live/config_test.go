package live

import (
	"testing"
	"time"

	"dlfs/internal/dataset"
)

// TestConfigWithDefaults pins the knob-resolution semantics: zero means
// "take the default" everywhere; the knobs with a meaningful "off"
// state (RequestTimeout, ReadCacheBytes, CoordWaitTimeout,
// PrefetchBudgetBytes, PeerFetchTimeout) treat any negative value as
// disabled and normalize it to the canonical -1; every other knob
// treats negatives like zero.
func TestConfigWithDefaults(t *testing.T) {
	cases := []struct {
		name  string
		in    Config
		check func(t *testing.T, c Config)
	}{
		{
			name: "zero value takes all defaults",
			in:   Config{},
			check: func(t *testing.T, c Config) {
				if c.ChunkSize != 256<<10 || c.CacheBytes != 64<<20 || c.BatchSize != 32 {
					t.Errorf("cache defaults: %+v", c)
				}
				if c.RequestTimeout != 10*time.Second {
					t.Errorf("RequestTimeout = %v, want 10s", c.RequestTimeout)
				}
				if c.ReadCacheBytes != 8<<20 {
					t.Errorf("ReadCacheBytes = %d, want 8MiB", c.ReadCacheBytes)
				}
				if c.CoordWaitTimeout != 60*time.Second {
					t.Errorf("CoordWaitTimeout = %v, want 60s", c.CoordWaitTimeout)
				}
				if c.PrefetchBudgetBytes != 16<<20 {
					t.Errorf("PrefetchBudgetBytes = %d, want 16MiB", c.PrefetchBudgetBytes)
				}
				if c.PeerCacheListen != "127.0.0.1:0" {
					t.Errorf("PeerCacheListen = %q, want loopback ephemeral", c.PeerCacheListen)
				}
				if c.PeerFetchTimeout != 500*time.Millisecond {
					t.Errorf("PeerFetchTimeout = %v, want 500ms", c.PeerFetchTimeout)
				}
			},
		},
		{
			name: "negative RequestTimeout disables, normalized to -1",
			in:   Config{RequestTimeout: -7 * time.Hour},
			check: func(t *testing.T, c Config) {
				if c.RequestTimeout != -1 {
					t.Errorf("RequestTimeout = %v, want canonical -1", c.RequestTimeout)
				}
			},
		},
		{
			name: "negative ReadCacheBytes disables, normalized to -1",
			in:   Config{ReadCacheBytes: -123456},
			check: func(t *testing.T, c Config) {
				if c.ReadCacheBytes != -1 {
					t.Errorf("ReadCacheBytes = %d, want canonical -1", c.ReadCacheBytes)
				}
			},
		},
		{
			name: "negative CoordWaitTimeout disables, normalized to -1",
			in:   Config{CoordWaitTimeout: -time.Minute},
			check: func(t *testing.T, c Config) {
				if c.CoordWaitTimeout != -1 {
					t.Errorf("CoordWaitTimeout = %v, want canonical -1", c.CoordWaitTimeout)
				}
			},
		},
		{
			name: "negative PrefetchBudgetBytes disables, normalized to -1",
			in:   Config{CrossEpochPrefetch: true, PrefetchBudgetBytes: -64 << 20},
			check: func(t *testing.T, c Config) {
				if c.PrefetchBudgetBytes != -1 {
					t.Errorf("PrefetchBudgetBytes = %d, want canonical -1", c.PrefetchBudgetBytes)
				}
			},
		},
		{
			name: "negative PeerFetchTimeout disables, normalized to -1",
			in:   Config{PeerCache: true, PeerFetchTimeout: -3 * time.Second},
			check: func(t *testing.T, c Config) {
				if c.PeerFetchTimeout != -1 {
					t.Errorf("PeerFetchTimeout = %v, want canonical -1", c.PeerFetchTimeout)
				}
			},
		},
		{
			name: "negative default-only knobs fall back to defaults",
			in:   Config{ChunkSize: -5, CacheBytes: -1, BatchSize: -2, Prefetchers: -3, Window: -4, QueuePairs: -1, CoalesceBytes: -9, DialTimeout: -time.Second, MaxRetries: -1, BreakerThreshold: -1},
			check: func(t *testing.T, c Config) {
				if c.ChunkSize != 256<<10 || c.CacheBytes != 64<<20 || c.BatchSize != 32 ||
					c.Prefetchers != 4 || c.Window != 8 || c.QueuePairs != 2 ||
					c.CoalesceBytes != 1<<20 || c.DialTimeout != 5*time.Second ||
					c.MaxRetries != 4 || c.BreakerThreshold != 3 {
					t.Errorf("negative knobs not defaulted: %+v", c)
				}
			},
		},
		{
			name: "explicit positives pass through",
			in: Config{
				ChunkSize:           4 << 10,
				ReadCacheBytes:      1 << 20,
				RequestTimeout:      3 * time.Second,
				CoordWaitTimeout:    9 * time.Second,
				PrefetchBudgetBytes: 2 << 20,
				PeerCacheListen:     "127.0.0.1:7777",
				PeerFetchTimeout:    250 * time.Millisecond,
			},
			check: func(t *testing.T, c Config) {
				if c.ChunkSize != 4<<10 || c.ReadCacheBytes != 1<<20 ||
					c.RequestTimeout != 3*time.Second || c.CoordWaitTimeout != 9*time.Second {
					t.Errorf("explicit values clobbered: %+v", c)
				}
				if c.PrefetchBudgetBytes != 2<<20 || c.PeerCacheListen != "127.0.0.1:7777" ||
					c.PeerFetchTimeout != 250*time.Millisecond {
					t.Errorf("explicit prefetch/peer values clobbered: %+v", c)
				}
			},
		},
		{
			name: "assembly knobs default and pass through",
			in:   Config{ServerAssembly: true},
			check: func(t *testing.T, c Config) {
				if c.AssemblyTransform != 0 {
					t.Errorf("AssemblyTransform = %d, want 0 (none)", c.AssemblyTransform)
				}
			},
		},
		{
			name: "negative assembly knobs normalize to canonical -1",
			in:   Config{ServerAssembly: true, AssemblyTransform: -42},
			check: func(t *testing.T, c Config) {
				if c.AssemblyTransform != -1 {
					t.Errorf("AssemblyTransform = %d, want canonical -1 (none)", c.AssemblyTransform)
				}
			},
		},
		{
			name: "explicit assembly values pass through",
			in:   Config{ServerAssembly: true, AssemblyTransform: 1},
			check: func(t *testing.T, c Config) {
				if c.AssemblyTransform != 1 {
					t.Errorf("explicit assembly values clobbered: %+v", c)
				}
			},
		},
		{
			name: "Tenant defaults to the legacy tenant and negatives normalize to it",
			in:   Config{},
			check: func(t *testing.T, c Config) {
				if c.Tenant != 0 {
					t.Errorf("Tenant = %d, want 0 (legacy tenant)", c.Tenant)
				}
				if n := (Config{Tenant: -3}).withDefaults(); n.Tenant != 0 {
					t.Errorf("negative Tenant = %d, want normalized 0", n.Tenant)
				}
			},
		},
		{
			name: "explicit Tenant passes through",
			in:   Config{Tenant: 5},
			check: func(t *testing.T, c Config) {
				if c.Tenant != 5 {
					t.Errorf("Tenant = %d, want 5", c.Tenant)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, tc.in.withDefaults()) })
	}
}

// TestDisabledReadCacheAndRequestTimeoutMount proves the disabled
// sentinels actually disable: a mount with both negative still serves
// reads, with no sample cache attached.
func TestDisabledReadCacheAndRequestTimeoutMount(t *testing.T) {
	addrs := startTargets(t, 2)
	ds := testDS(20, 1024)
	fs, err := Mount(addrs, ds, Config{ReadCacheBytes: -1, RequestTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck
	if fs.scache != nil {
		t.Fatal("sample cache attached despite ReadCacheBytes < 0")
	}
	for i := 0; i < 2; i++ { // repeats must both hit the wire
		got, err := fs.ReadSample(3)
		if err != nil {
			t.Fatal(err)
		}
		if dataset.ChecksumBytes(got) != ds.Checksum(3) {
			t.Fatal("corrupt read")
		}
		fs.Recycle(got)
	}
	if hits := fs.CacheHits(); hits != 0 {
		t.Fatalf("cache hits = %d with cache disabled", hits)
	}
}
