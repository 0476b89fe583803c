// Command bench is the repository's one benchmark of the live path.
//
// It stands up in-process nvmetcp targets, mounts through internal/live
// and drives one of seven named workloads, verifying every byte it is
// given. An untraced run prints the end-to-end metrics; a traced run
// (-trace 1) prints the per-layer metrics: the workload again with
// stage histograms and the wall recorder on, plus a ladder of rungs
// from memcpy to a qp-group read. See README.md and ../BENCHMARK.json.
//
//	bench -workload imagenet-cold -seed 1 -seconds 10 -trace 0  one run (what BENCHMARK.json's command does)
//	bench -json out.json                                         every workload, -rounds times, one report
//	bench -compare a.json b.json                                 two reports against the bounds
//	bench -spec                                                  BENCHMARK.json, from the tables in spec.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run once; empty runs every workload -rounds times")
		seed     = flag.Int64("seed", 1, "derives the dataset, every epoch order and every permutation")
		secs     = flag.Float64("seconds", runSeconds, "length of the measured window")
		traced   = flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run, 0 the end-to-end metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the benchmark's own spans here as Chrome trace JSON")
		scale    = flag.Float64("scale", 1, "shrink datasets and state (tests only)")
		rounds   = flag.Int("rounds", 3, "without -workload: untraced runs per workload, round-robin")
		jsonOut  = flag.String("json", "", "without -workload: write the report here")
		compare  = flag.Bool("compare", false, "compare two reports: bench -compare a.json b.json")
		showSpec = flag.Bool("spec", false, "print BENCHMARK.json")
	)
	flag.Parse()
	p := params{seed: *seed, seconds: *secs, scale: *scale}
	var err error
	switch {
	case *showSpec:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		err = enc.Encode(spec())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare a.json b.json")
			break
		}
		err = compareReports(flag.Arg(0), flag.Arg(1))
	case *name == "":
		err = runAll(p, *rounds, *jsonOut)
	default:
		err = runOne(*name, p, *traced == 1, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metricJSON is one metric on the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line a run prints.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// units maps every metric name to its unit.
func units() map[string]string {
	u := make(map[string]string, len(endToEndSpecs)+len(perLayerSpecs))
	for _, m := range endToEndSpecs {
		u[m.Name] = m.Unit
	}
	for _, m := range perLayerSpecs {
		u[m.Name] = m.Unit
	}
	return u
}

// runOne runs one workload once, prints every metric by name with its
// unit, median, quartiles and sample count, then the result line. Any
// correctness violation makes the command fail.
func runOne(name string, p params, traced bool, traceOut string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, p, traced, traceOut)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	unit := units()
	out := resultJSON{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricJSON, len(res.metrics))}
	fmt.Printf("%-40s %-10s %14s %14s %14s %6s\n", name, "unit", "median", "q1", "q3", "n")
	for _, n := range sortedNames(res.metrics) {
		s := res.metrics[n]
		fmt.Printf("%-40s %-10s %14.6g %14.6g %14.6g %6d\n", n, unit[n], s.Value, s.Q1, s.Q3, s.N)
		out.Metrics[n] = metricJSON{Value: s.Value, Unit: unit[n]}
	}
	for _, n := range sortedNames(res.info) {
		s := res.info[n]
		fmt.Printf("  (raw) %-32s %-10s %14.6g %14.6g %14.6g %6d\n", n, unit[n], s.Value, s.Q1, s.Q3, s.N)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.correct {
		return fmt.Errorf("%s: %d of %d operations failed verification", name, res.failed, res.attempted)
	}
	return nil
}

func sortedNames(m map[string]stat) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
