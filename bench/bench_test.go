package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps the file the driver reads and the
// tables the program reports from in step, and checks the contract's
// limits on the file.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	var got benchmarkSpec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := spec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with `go run . -spec > ../BENCHMARK.json`\n got %+v\nwant %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != lower && better != higher {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range got.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	for _, w := range got.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: malformed name, name used twice, or why over one 200-character line", w.Name)
		}
		seen[w.Name] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
}

// TestWorkloadsEmitSpecNames runs every workload, untraced and traced
// (so the ladder too), at a tiny scale and checks that each run is
// correct and emits exactly the names BENCHMARK.json lists, so the two
// cannot drift.
func TestWorkloadsEmitSpecNames(t *testing.T) {
	var endToEnd, perLayer []string
	for _, m := range endToEndSpecs {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range perLayerSpecs {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	p := params{seed: 7, seconds: 0.1, scale: 0.02}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				out := ""
				if traced {
					out = filepath.Join(t.TempDir(), "trace.json")
				}
				res, err := runWorkload(w, p, traced, out)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.correct || res.attempted < 1 || res.failed != 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.correct, res.attempted, res.failed)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if got := sortedNames(res.metrics); !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: emitted names differ from the spec\n got %v\nwant %v", traced, got, want)
				}
				if !traced {
					for n, s := range res.metrics {
						if !(s.Value > 0) {
							t.Errorf("end-to-end metric %s is %v; every one must be above 0 on every workload", n, s.Value)
						}
					}
					continue
				}
				var trace struct {
					TraceEvents []struct {
						Name string             `json:"name"`
						Args map[string]float64 `json:"args"`
					} `json:"traceEvents"`
				}
				b, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(b, &trace); err != nil {
					t.Fatalf("trace JSON: %v", err)
				}
				names := map[string]bool{}
				for _, e := range trace.TraceEvents {
					names[e.Name] = true
					if _, ok := e.Args["self_us"]; !ok {
						t.Fatalf("span %s has no self time", e.Name)
					}
				}
				for _, n := range []string{"untraced", "traced", "measure", "ladder", "nvmetcp"} {
					if !names[n] {
						t.Errorf("trace has no %q span", n)
					}
				}
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v,
// n=4), which the benchmark's bounds are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{4, 8, 15, 16, 23, 42}, 7, 15.5, 27.75},
	} {
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompareVerdicts checks the three outcomes of -compare: inside the
// bound, past it, and too noisy to tell.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, shift, iqr float64) string {
		r := newReport(params{seed: 1, seconds: 1}, 3)
		for _, w := range workloads {
			r.Workloads[w.name] = map[string]summary{}
			for _, m := range endToEndSpecs {
				med := 100.0
				if m.Better == higher {
					med /= shift
				} else {
					med *= shift
				}
				r.Workloads[w.name][m.Name] = summary{Unit: m.Unit, Median: med, Q1: med * (1 - iqr/2), Q3: med * (1 + iqr/2), N: 3}
			}
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1, 0.01)
	if err := compareReports(base, write("same.json", 1.02, 0.01)); err != nil {
		t.Errorf("2%% worse with 1%% spread should pass: %v", err)
	}
	if err := compareReports(base, write("worse.json", 1.5, 0.01)); err == nil {
		t.Error("50% worse with 1% spread should fail")
	}
	if err := compareReports(base, write("noisy.json", 1.5, 0.6)); err != nil {
		t.Errorf("50%% worse with 60%% spread is unresolved, not a failure: %v", err)
	}
}
