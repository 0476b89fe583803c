package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// recorder holds what a run observes from outside the system: the
// latency of every consumer call (NextBatch, ReadSample), the
// attempted/failed tally behind the correctness verdict and, in a
// traced run only, one span per call into a layer. Spans stay in memory
// until the run ends.
type recorder struct {
	mu        sync.Mutex
	lat       []int64 // ns per consumer call since the last resetWindow
	attempted int64
	failed    int64
	notes     []string // first few correctness violations, for the log

	traced bool
	t0     time.Time
	spans  []span
}

type span struct {
	name   string
	tid    int
	start  int64 // ns since t0
	dur    int64
	parent int32 // index into spans, -1 for a root
}

const noSpan = int32(-1)

func newRecorder(traced bool) *recorder {
	return &recorder{traced: traced, t0: time.Now(), lat: make([]int64, 0, 1<<20)}
}

// count adds to the tally; note describes a violation (kept for the
// first few only).
func (r *recorder) count(attempted, failed int64, note string) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && len(r.notes) < 8 {
		r.notes = append(r.notes, note)
	}
	r.mu.Unlock()
}

// addLat appends one goroutine's call latencies; callers batch per unit
// so the measured loop takes no lock per call.
func (r *recorder) addLat(ns []int64) {
	r.mu.Lock()
	r.lat = append(r.lat, ns...)
	r.mu.Unlock()
}

// resetWindow drops the latencies seen so far (warm-up) and returns the
// sorted latencies of the window that just ended.
func (r *recorder) resetWindow() []int64 {
	r.mu.Lock()
	out := append([]int64(nil), r.lat...)
	r.lat = r.lat[:0]
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// begin opens a span under parent and returns its id (noSpan when the
// run is untraced, which every other method accepts).
func (r *recorder) begin(parent int32, tid int, name string) int32 {
	if !r.traced {
		return noSpan
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, tid: tid, start: int64(time.Since(r.t0)), dur: -1, parent: parent})
	id := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	if id == noSpan {
		return
	}
	r.mu.Lock()
	r.spans[id].dur = int64(time.Since(r.t0)) - r.spans[id].start
	r.mu.Unlock()
}

// leaf records a finished call as a child of parent.
func (r *recorder) leaf(parent int32, tid int, name string, start time.Time, d time.Duration) {
	if !r.traced {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, tid: tid, start: int64(start.Sub(r.t0)), dur: int64(d), parent: parent})
	r.mu.Unlock()
}

// writeChromeJSON renders the spans as Chrome trace events (load in
// chrome://tracing or Perfetto). Each event carries its self time: its
// duration minus the part its direct children cover.
func (r *recorder) writeChromeJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 && s.dur > 0 {
			child[s.parent] += s.dur
		}
	}
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		Ts   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		Pid  int                `json:"pid"`
		Tid  int                `json:"tid"`
		Args map[string]float64 `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.dur < 0 {
			continue // never closed: the run failed inside it
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, Pid: 1, Tid: s.tid,
			Args: map[string]float64{"self_us": float64(s.dur-child[i]) / 1e3},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
