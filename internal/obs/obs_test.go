package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dlfs/internal/blockdev"
	"dlfs/internal/dataset"
	"dlfs/internal/live"
	"dlfs/internal/metrics"
	"dlfs/internal/nvmetcp"
	"dlfs/internal/obs"
	"dlfs/internal/trace"
)

// series is one parsed exposition sample: metric name, sorted label
// pairs, value.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm is a minimal Prometheus text-format parser good enough to
// check our own output: it validates HELP/TYPE ordering and returns
// every sample line.
func parseProm(t *testing.T, text string) []series {
	t.Helper()
	var out []series
	typed := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: bad TYPE line %q", ln+1, line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		s := series{labels: map[string]string{}, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
			s.name = key[:i]
			for _, pair := range strings.Split(key[i+1:len(key)-1], ",") {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					t.Fatalf("line %d: bad label %q", ln+1, pair)
				}
				val, err := strconv.Unquote(pair[eq+1:])
				if err != nil {
					t.Fatalf("line %d: bad label value %q: %v", ln+1, pair, err)
				}
				s.labels[pair[:eq]] = val
			}
		} else {
			s.name = key
		}
		base := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b := strings.TrimSuffix(s.name, suf); b != s.name && typed[b] == "histogram" {
				base = b
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("line %d: sample %q precedes its TYPE header", ln+1, s.name)
		}
		out = append(out, s)
	}
	return out
}

// sumOf totals every sample of name whose labels are a superset of want.
func sumOf(ss []series, name string, want map[string]string) (total float64, n int) {
	for _, s := range ss {
		if s.name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.value
			n++
		}
	}
	return total, n
}

// checkHistogram asserts the Prometheus histogram invariants for one
// metric+label set: cumulative non-decreasing buckets, a closing +Inf
// bucket equal to _count, and increasing le boundaries. Returns _count.
func checkHistogram(t *testing.T, ss []series, name string, want map[string]string) float64 {
	t.Helper()
	type bkt struct {
		le  float64
		cum float64
	}
	var buckets []bkt
	var inf, count, sum float64
	var haveInf, haveCount, haveSum bool
	for _, s := range ss {
		match := true
		for k, v := range want {
			if s.labels[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		switch s.name {
		case name + "_bucket":
			le := s.labels["le"]
			if le == "+Inf" {
				inf, haveInf = s.value, true
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", name, le)
			}
			buckets = append(buckets, bkt{le: f, cum: s.value})
		case name + "_count":
			count, haveCount = s.value, true
		case name + "_sum":
			sum, haveSum = s.value, true
		}
	}
	if !haveInf || !haveCount || !haveSum {
		t.Fatalf("%s%v: missing +Inf/_count/_sum (inf=%v count=%v sum=%v)", name, want, haveInf, haveCount, haveSum)
	}
	if !sort.SliceIsSorted(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le }) {
		t.Fatalf("%s: le boundaries not increasing", name)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i].cum < buckets[i-1].cum {
			t.Fatalf("%s: bucket counts not cumulative at le=%g", name, buckets[i].le)
		}
	}
	if inf != count {
		t.Fatalf("%s: +Inf bucket %g != _count %g", name, inf, count)
	}
	if count > 0 && sum <= 0 {
		t.Fatalf("%s: %g observations but sum %g", name, count, sum)
	}
	return count
}

func get(t *testing.T, url string) (string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestConsensusCollector scrapes the dlfs_raft_* series off a
// hand-built consensus snapshot and checks every value and the derived
// commit lag.
func TestConsensusCollector(t *testing.T) {
	var c metrics.Consensus
	c.Term.Store(4)
	c.IsLeader.Store(1)
	c.Elections.Store(2)
	c.LeaderWins.Store(1)
	c.LastIndex.Store(42)
	c.CommitIndex.Store(40)
	c.AppliedIndex.Store(39)
	c.Proposals.Store(17)
	c.Snapshots.Store(1)

	h := obs.NewHandler()
	h.Register(obs.ConsensusCollector("r0", c.Snapshot))
	srv, err := obs.Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	body, _ := get(t, "http://"+srv.Addr+"/metrics")
	ss := parseProm(t, body)
	lbl := map[string]string{"replica": "r0"}
	for name, want := range map[string]float64{
		"dlfs_raft_term":              4,
		"dlfs_raft_is_leader":         1,
		"dlfs_raft_elections_total":   2,
		"dlfs_raft_leader_wins_total": 1,
		"dlfs_raft_last_index":        42,
		"dlfs_raft_commit_index":      40,
		"dlfs_raft_applied_index":     39,
		"dlfs_raft_commit_lag":        1,
		"dlfs_raft_proposals_total":   17,
		"dlfs_raft_snapshots_total":   1,
	} {
		if got, n := sumOf(ss, name, lbl); n != 1 || got != want {
			t.Fatalf("%s: scraped %g (%d series), want %g", name, got, n, want)
		}
	}
}

// TestServerSnapshotChecksumMemoSeries: the target's checksum-memo pair
// is exported under the names README.md gives.
func TestServerSnapshotChecksumMemoSeries(t *testing.T) {
	var b strings.Builder
	obs.WriteServerSnapshot(&b, metrics.ServerSnapshot{ChecksumMemoHits: 7, ChecksumMemoMisses: 3}, obs.Label{Name: "target", Value: "t0"})
	ss := parseProm(t, b.String())
	lbl := map[string]string{"target": "t0"}
	for name, want := range map[string]float64{
		"dlfs_server_checksum_memo_hits_total":   7,
		"dlfs_server_checksum_memo_misses_total": 3,
	} {
		if got, n := sumOf(ss, name, lbl); n != 1 || got != want {
			t.Fatalf("%s: scraped %g (%d series), want %g", name, got, n, want)
		}
	}
}

// TestEndpointEndToEnd is the full loop the ISSUE asks for: targets and
// a live mount run with stage histograms on, an epoch flows through, and
// the scraped /metrics text must agree with the in-process snapshots.
func TestEndpointEndToEnd(t *testing.T) {
	const nTargets = 2
	targets := make([]*nvmetcp.Target, nTargets)
	addrs := make([]string, nTargets)
	for i := range targets {
		tgt := nvmetcp.NewTargetConfig(blockdev.New(128<<20), nvmetcp.Config{StageHistograms: true})
		addr, err := tgt.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tgt.Close() }) //nolint:errcheck
		targets[i], addrs[i] = tgt, addr
	}

	ds := dataset.Generate(dataset.Config{Label: "obs", Seed: 7, NumSamples: 120, Dist: dataset.Fixed(1800)})
	rec := trace.NewWall(1 << 16)
	fs, err := live.Mount(addrs, ds, live.Config{
		ChunkSize:       16 << 10,
		StageHistograms: true,
		Trace:           rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close() //nolint:errcheck

	ep, err := fs.Sequence(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := fs.ReadSample(i); err != nil {
			t.Fatal(err)
		}
	}

	h := obs.NewHandler()
	for i, tgt := range targets {
		h.Register(obs.TargetCollector(fmt.Sprintf("t%d", i), tgt))
	}
	h.Register(obs.PipelineCollector("live", func() metrics.PipelineSnapshot { return fs.Stats().Pipeline }))
	h.SetTrace(rec)
	srv, err := obs.Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	// Everything is quiesced, so the in-process snapshot taken here must
	// match the scrape exactly.
	pipe := fs.Stats().Pipeline
	if pipe.Stages == nil {
		t.Fatal("StageHistograms on but snapshot carries no stage histograms")
	}
	var srvSnaps []metrics.ServerSnapshot
	for _, tgt := range targets {
		srvSnaps = append(srvSnaps, tgt.ServerStats())
	}

	body, ctype := get(t, "http://"+srv.Addr+"/metrics")
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ctype)
	}
	ss := parseProm(t, body)

	// Client counters must match the snapshot.
	clientLbl := map[string]string{"client": "live"}
	if got, n := sumOf(ss, "dlfs_client_wire_bytes_total", clientLbl); n != 1 || int64(got) != pipe.WireBytes {
		t.Fatalf("wire bytes: scraped %g (%d series), snapshot %d", got, n, pipe.WireBytes)
	}
	if got, _ := sumOf(ss, "dlfs_client_wire_reads_total", clientLbl); int64(got) != pipe.WireReads {
		t.Fatalf("wire reads: scraped %g, snapshot %d", got, pipe.WireReads)
	}
	if got, _ := sumOf(ss, "dlfs_client_cache_hits_total", clientLbl); int64(got) != pipe.CacheHits {
		t.Fatalf("cache hits: scraped %g, snapshot %d", got, pipe.CacheHits)
	}
	// The hit/peer/origin breakdown: the ReadSample misses above went to
	// origin, and the prefetch/peer counters are exported (zero here —
	// neither feature is on for this mount).
	if got, n := sumOf(ss, "dlfs_client_origin_reads_total", clientLbl); n != 1 || int64(got) != pipe.OriginReads || got == 0 {
		t.Fatalf("origin reads: scraped %g (%d series), snapshot %d", got, n, pipe.OriginReads)
	}
	if got, _ := sumOf(ss, "dlfs_client_origin_bytes_total", clientLbl); int64(got) != pipe.OriginBytes {
		t.Fatalf("origin bytes: scraped %g, snapshot %d", got, pipe.OriginBytes)
	}
	for _, name := range []string{
		"dlfs_client_prefetched_units_total", "dlfs_client_prefetch_hit_units_total",
		"dlfs_client_peer_hits_total", "dlfs_client_peer_fallbacks_total", "dlfs_client_peer_served_total",
	} {
		if got, n := sumOf(ss, name, clientLbl); n != 1 || got != 0 {
			t.Fatalf("%s: scraped %g (%d series), want an exported zero", name, got, n)
		}
	}

	// All four client stage histograms (plus whole-read) are present,
	// populated, and internally consistent.
	for stage, snap := range map[string]metrics.HistSnapshot{
		"prep": pipe.Stages.Prep, "post": pipe.Stages.Post,
		"poll": pipe.Stages.Poll, "copy": pipe.Stages.Copy,
		"read": pipe.Stages.Read,
	} {
		count := checkHistogram(t, ss, "dlfs_client_"+stage+"_seconds", clientLbl)
		if int64(count) != snap.Count {
			t.Fatalf("client %s histogram: scraped count %g, snapshot %d", stage, count, snap.Count)
		}
		if stage != "read" && count == 0 {
			t.Fatalf("client %s histogram empty after an epoch", stage)
		}
	}
	if pipe.Stages.Read.Count == 0 {
		t.Fatal("read histogram empty after ReadSample calls")
	}

	// Server side: per-target command counters match, and the qwait and
	// service histograms saw every command.
	var wantCmds int64
	for i, snap := range srvSnaps {
		lbl := map[string]string{"target": fmt.Sprintf("t%d", i)}
		cmds, _ := targets[i].Served()
		wantCmds += cmds
		if got, _ := sumOf(ss, "dlfs_server_commands_total", lbl); int64(got) != cmds {
			t.Fatalf("target %d commands: scraped %g, want %d", i, got, cmds)
		}
		if snap.Stages == nil {
			t.Fatalf("target %d: StageHistograms on but no snapshot stages", i)
		}
		for stage, hs := range map[string]metrics.HistSnapshot{
			"qwait": snap.Stages.QueueWait, "service": snap.Stages.Service,
		} {
			count := checkHistogram(t, ss, "dlfs_server_"+stage+"_seconds", lbl)
			if int64(count) != hs.Count {
				t.Fatalf("target %d %s: scraped count %g, snapshot %d", i, stage, count, hs.Count)
			}
			if count == 0 {
				t.Fatalf("target %d %s histogram empty after traffic", i, stage)
			}
		}
		checkHistogram(t, ss, "dlfs_server_flush_seconds", lbl)
	}
	if wantCmds < pipe.WireReads {
		t.Fatalf("targets served %d commands but client posted %d wire reads", wantCmds, pipe.WireReads)
	}

	// /healthz.
	hbody, hct := get(t, "http://"+srv.Addr+"/healthz")
	if !strings.HasPrefix(hct, "application/json") {
		t.Fatalf("healthz content type %q", hct)
	}
	var health struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(hbody), &health); err != nil {
		t.Fatalf("healthz not JSON: %v (%q)", err, hbody)
	}
	if health.Status != "ok" || health.Uptime < 0 {
		t.Fatalf("healthz %+v", health)
	}

	// /trace.json: a valid Chrome trace with the epoch's events.
	tbody, _ := get(t, "http://"+srv.Addr+"/trace.json")
	var events []map[string]any
	if err := json.Unmarshal([]byte(tbody), &events); err != nil {
		t.Fatalf("trace.json not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace.json empty after a traced epoch")
	}

	// Unknown paths 404.
	resp, err := http.Get("http://" + srv.Addr + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %s", resp.Status)
	}
}

// TestTraceEndpointNilRecorder covers the no-trace default.
func TestTraceEndpointNilRecorder(t *testing.T) {
	srv, err := obs.Serve("127.0.0.1:0", obs.NewHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	body, _ := get(t, "http://"+srv.Addr+"/trace.json")
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("empty trace not valid JSON: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("expected no events, got %d", len(events))
	}
}
