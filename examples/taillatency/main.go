// Taillatency: visualize how garbage collection creates the tail latency
// the paper opens with, and how steering trims it. Replays a bursty HPC
// write workload and prints the full latency percentile profile for LGC
// vs GC-Steering, plus an ASCII CCDF.
//
//	go run ./examples/taillatency
package main

import (
	"fmt"
	"log"
	"strings"

	"gcsteering"
)

func main() {
	const workload = "HPC_W"
	const requests = 3000

	lgc := run(workload, requests, gcsteering.SchemeLGC)
	steer := run(workload, requests, gcsteering.SchemeSteering)

	fmt.Printf("Latency percentiles under %s (bursty 510.5 KB writes)\n\n", workload)
	fmt.Printf("%-10s %14s %14s\n", "quantile", "LGC", "GC-Steering")
	rows := []struct {
		name       string
		lgc, steer int64
	}{
		{"p50", lgc.Latency.P50, steer.Latency.P50},
		{"p90", lgc.Latency.P90, steer.Latency.P90},
		{"p95", lgc.Latency.P95, steer.Latency.P95},
		{"p99", lgc.Latency.P99, steer.Latency.P99},
		{"p99.9", lgc.Latency.P999, steer.Latency.P999},
		{"max", lgc.Latency.Max, steer.Latency.Max},
	}
	for _, r := range rows {
		fmt.Printf("%-10s %12.1fµs %12.1fµs\n", r.name, float64(r.lgc)/1e3, float64(r.steer)/1e3)
	}

	fmt.Printf("\nGC pressure: LGC spent %.1f%% of the run collecting per SSD;"+
		" steering dodged %.0f%% of the pages that would have hit a collecting SSD.\n",
		100*lgc.GCDuty(5), 100*steer.RedirectRatio)

	fmt.Println("\nRelative tail (bar length ∝ p99.9, shorter is better):")
	scale := float64(lgc.Latency.P999)
	bar := func(v int64) string {
		n := int(40 * float64(v) / scale)
		if n < 1 {
			n = 1
		}
		if n > 60 {
			n = 60
		}
		return strings.Repeat("#", n)
	}
	fmt.Printf("  %-12s %s\n", "LGC", bar(lgc.Latency.P999))
	fmt.Printf("  %-12s %s\n", "GC-Steering", bar(steer.Latency.P999))
}

func run(workload string, requests int, scheme gcsteering.Scheme) *gcsteering.Results {
	cfg := gcsteering.DefaultConfig()
	cfg.Scheme = scheme
	tr, err := cfg.GenerateWorkload(workload, requests)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := gcsteering.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Replay(tr)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
