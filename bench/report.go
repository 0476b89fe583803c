package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// report is the one shape every full run is written in.
type report struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds"`
	Seconds    float64 `json:"seconds"`
	// Workloads maps workload -> metric -> summary over the rounds
	// (end-to-end metrics) or the one traced run (per-layer metrics).
	Workloads map[string]map[string]summary `json:"workloads"`
}

type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func newReport(p params, rounds int) *report {
	r := &report{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Kernel: "unknown", Seed: p.seed, Rounds: rounds, Seconds: p.seconds, Workloads: map[string]map[string]summary{},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				r.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		r.Kernel = strings.TrimSpace(string(b))
	}
	return r
}

// child runs one workload once in a process of its own, so heap state
// does not leak between workloads and peak RSS is per workload, and
// returns its result line.
func child(name string, p params, seed int64, traced int) (resultJSON, error) {
	var res resultJSON
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(p.seconds),
		"-scale", fmt.Sprint(p.scale), "-trace", fmt.Sprint(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s (seed %d, trace %d): %w", name, seed, traced, err)
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s: result line: %w", name, err)
	}
	return res, nil
}

// runAll is a full run: every workload round-robin for the given
// rounds, so a noisy burst lands on every workload rather than on one,
// each round on its own seed as the acceptance runs are; then one traced
// run per workload. It prints, and with -json writes, one report.
func runAll(p params, rounds int, jsonOut string) error {
	rep := newReport(p, rounds)
	values := map[string]map[string][]float64{}
	unit := units()
	for round := 0; round <= rounds; round++ {
		traced := 0
		if round == rounds {
			traced = 1
		}
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %s (trace %d)\n", round+1, rounds+1, w.name, traced)
			res, err := child(w.name, p, p.seed+int64(round), traced)
			if err != nil {
				return err
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for n, m := range res.Metrics {
				values[w.name][n] = append(values[w.name][n], m.Value)
			}
		}
	}
	for _, w := range workloads {
		rep.Workloads[w.name] = map[string]summary{}
		fmt.Printf("\n%-40s %-10s %14s %14s %14s %6s\n", w.name, "unit", "median", "q1", "q3", "n")
		for _, n := range metricOrder() {
			v, ok := values[w.name][n]
			if !ok {
				continue
			}
			s := statOf(v)
			rep.Workloads[w.name][n] = summary{Unit: unit[n], Median: s.Value, Q1: s.Q1, Q3: s.Q3, N: s.N}
			fmt.Printf("%-40s %-10s %14.6g %14.6g %14.6g %6d\n", n, unit[n], s.Value, s.Q1, s.Q3, s.N)
		}
	}
	if jsonOut == "" {
		return nil
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonOut, append(b, '\n'), 0o644)
}

// metricOrder lists every metric name, end-to-end first, in spec order.
func metricOrder() []string {
	var names []string
	for _, m := range endToEndSpecs {
		names = append(names, m.Name)
	}
	for _, m := range perLayerSpecs {
		names = append(names, m.Name)
	}
	return names
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports prints every pairing of workload and end-to-end metric
// in its own row and fails when a median got worse by more than the
// metric's bound. Where either run's quartile range is wider than the
// bound the row is marked unresolved, not ok: the runs cannot tell.
func compareReports(pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s commit %s seed %d rounds %d\nb: %s commit %s seed %d rounds %d\n",
		pathA, a.Commit, a.Seed, a.Rounds, pathB, b.Commit, b.Seed, b.Rounds)
	fmt.Printf("%-18s %-20s %12s %12s %9s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse", "spread", "bound", "verdict")
	regressed := 0
	for _, w := range workloads {
		for _, m := range endToEndSpecs {
			sa, okA := a.Workloads[w.name][m.Name]
			sb, okB := b.Workloads[w.name][m.Name]
			if !okA || !okB {
				fmt.Printf("%-18s %-20s missing from a report\n", w.name, m.Name)
				regressed++
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == higher {
				worse = -worse
			}
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSED"
				regressed++
			}
			fmt.Printf("%-18s %-20s %12.5g %12.5g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				w.name, m.Name, sa.Median, sb.Median, worse*100, spread*100, m.Bound*100, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed past their bound", regressed)
	}
	return nil
}
