// Quickstart: build a 5-SSD RAID5 with each of the three GC schemes, replay
// the same enterprise workload, and compare mean and tail response times.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gcsteering"
)

func main() {
	const workload = "Fin1"
	const requests = 6000

	fmt.Printf("Replaying %d requests of the %s workload on RAID5 (5 SSDs, 64KB stripe unit)\n\n",
		requests, workload)
	fmt.Printf("%-14s %12s %12s %12s %10s\n", "scheme", "mean", "p95", "p99", "GC count")

	for _, scheme := range []gcsteering.Scheme{
		gcsteering.SchemeLGC,
		gcsteering.SchemeGGC,
		gcsteering.SchemeSteering,
	} {
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
		fmt.Printf("%-14s %10.1fµs %10.1fµs %10.1fµs %10d\n",
			scheme,
			res.Latency.Mean/1e3,
			float64(res.Latency.P95)/1e3,
			float64(res.Latency.P99)/1e3,
			res.GCEpisodes)
		if scheme == gcsteering.SchemeSteering {
			fmt.Printf("%-14s %.1f%% of pages addressed to a collecting SSD dodged it\n",
				"", 100*res.RedirectRatio)
		}
	}
	fmt.Println("\nGC-Steering redirects popular reads and all writes away from SSDs that")
	fmt.Println("are garbage-collecting, which is where the mean and tail improvements come from.")
}
