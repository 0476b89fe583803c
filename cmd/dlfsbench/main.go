// Command dlfsbench regenerates the paper's evaluation: every figure of
// §IV plus the ablation studies, printed as tables whose rows mirror the
// series the paper plots.
//
// Usage:
//
//	dlfsbench                  # all figures at full scale
//	dlfsbench -fig 6           # one figure
//	dlfsbench -fig 7a -scale 0.25
//	dlfsbench -fig ablation    # design-choice ablations
//	dlfsbench -tenants -json BENCH_TENANTS.json
//	                           # multi-tenant isolation bench: a paced
//	                           # victim's queue-wait p99 solo vs under a
//	                           # greedy quota-capped co-tenant; fails if
//	                           # contention inflates it past the bound
//
// The live path's own benchmark is the bench/ module (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dlfs/internal/figures"
	"dlfs/internal/metrics"
)

type figure struct {
	name string
	desc string
	fn   func(float64) *metrics.Table
}

var all = []figure{
	{"1", "sample size distributions (ImageNet, IMDB)", figures.Fig1},
	{"6", "single-node random-read throughput", figures.Fig6},
	{"7a", "cores needed to saturate the SSD", figures.Fig7a},
	{"7b", "compute overlapped with the poll loop", figures.Fig7b},
	{"8", "aggregated throughput over 16 nodes", figures.Fig8},
	{"9", "scalability across 2-16 nodes", figures.Fig9},
	{"10", "sample lookup time for 1M samples", figures.Fig10},
	{"11", "effectiveness on disaggregated devices", figures.Fig11},
	{"12", "TensorFlow import throughput", figures.Fig12},
	{"13", "training accuracy vs sample order", figures.Fig13},
}

var ablations = []figure{
	{"ablation-batching", "batching optimisations, one at a time", figures.AblationBatching},
	{"ablation-chunk", "chunk size sweep", figures.AblationChunkSize},
	{"ablation-qd", "queue depth sweep", figures.AblationQueueDepth},
	{"ablation-copy", "copy-thread pool sweep", figures.AblationCopyThreads},
	{"ablation-pattern", "sequential vs random access (§II-B motivation)", figures.AblationAccessPattern},
	{"ablation-stagein", "PFS stage-in: per-file vs containers", figures.AblationStageIn},
	{"stages", "Fig 4 pipeline stage CPU breakdown", figures.StageBreakdown},
	{"mount", "directory build + allgather time vs nodes (§III-B2)", figures.MountTime},
	{"sensitivity", "throughput sensitivity to model parameters", figures.Sensitivity},
	{"capacity", "DeepIO memory-preload vs DLFS by dataset/RAM ratio (§V)", figures.MemoryCapacity},
}

func main() {
	figFlag := flag.String("fig", "all", "figure to run: 1,6,7a,7b,8,9,10,11,12,13, ablation, or all")
	scale := flag.Float64("scale", 1.0, "measurement volume scale (smaller = faster, noisier)")
	list := flag.Bool("list", false, "list available figures and exit")
	tenantBench := flag.Bool("tenants", false, "run the multi-tenant isolation bench instead of the figures")
	jsonOut := flag.String("json", "", "-tenants JSON report path (- for stdout; default BENCH_TENANTS.json)")
	flag.Parse()

	if *tenantBench {
		out := *jsonOut
		if out == "" {
			out = "BENCH_TENANTS.json"
		}
		if err := runTenantBench(out, *scale); err != nil {
			fmt.Fprintln(os.Stderr, "dlfsbench:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, f := range append(append([]figure{}, all...), ablations...) {
			fmt.Printf("  %-18s %s\n", f.name, f.desc)
		}
		return
	}

	var selected []figure
	switch strings.ToLower(*figFlag) {
	case "all":
		selected = append(selected, all...)
		selected = append(selected, ablations...)
	case "ablation", "ablations":
		selected = ablations
	default:
		for _, f := range append(append([]figure{}, all...), ablations...) {
			if f.name == *figFlag {
				selected = []figure{f}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "dlfsbench: unknown figure %q (use -list)\n", *figFlag)
			os.Exit(2)
		}
	}

	for _, f := range selected {
		start := time.Now()
		tab := f.fn(*scale)
		fmt.Printf("%s\n", tab)
		fmt.Printf("(fig %s: %s — generated in %.1fs at scale %.2f)\n\n",
			f.name, f.desc, time.Since(start).Seconds(), *scale)
	}
}
