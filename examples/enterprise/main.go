// Enterprise: sweep all six enterprise profiles of the paper's Table I
// (Fin1 plus the five MSR Cambridge volumes), comparing LGC with
// GC-Steering and reporting the redirect behaviour per workload — a small
// version of the paper's Figure 7a for the enterprise half of the table.
//
//	go run ./examples/enterprise
package main

import (
	"fmt"
	"log"

	"gcsteering"
)

func main() {
	workloads := []string{"Fin1", "hm_0", "mds_0", "prxy_0", "rsrch_0", "wdev_0"}
	const requests = 5000

	fmt.Printf("%-9s %14s %14s %9s %10s %10s\n",
		"workload", "LGC mean", "steering mean", "vs LGC", "redirect", "staged pgs")
	for _, w := range workloads {
		lgc := run(w, requests, gcsteering.SchemeLGC)
		steer := run(w, requests, gcsteering.SchemeSteering)
		fmt.Printf("%-9s %12.1fµs %12.1fµs %8.2fx %9.1f%% %10d\n",
			w,
			lgc.Latency.Mean/1e3,
			steer.Latency.Mean/1e3,
			steer.Latency.Mean/lgc.Latency.Mean,
			100*steer.RedirectRatio,
			steer.Steering.RedirectedWrites+steer.Steering.Migrations)
	}
	fmt.Println("\nColumns: mean response times, the steering/LGC ratio (lower is better),")
	fmt.Println("the share of GC-period pages that dodged a collecting SSD, and how many")
	fmt.Println("pages passed through the staging space (redirected writes + hot-read copies).")
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
