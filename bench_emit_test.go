// Machine-readable benchmark emitter. TestEmitBenchJSON re-measures the
// repo's headline performance numbers with testing.Benchmark and writes
// them to the file named by the GCS_BENCH_OUT environment variable:
//
//	GCS_BENCH_OUT=BENCH_6.json go test -run TestEmitBenchJSON -count=1 .
//
// Without the variable the test skips, so the ordinary suite never pays
// for it and never touches the working tree. The emitted document carries
// a schema version; bump benchSchemaVersion when its shape changes.
package gcsteering_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"gcsteering"
	"gcsteering/internal/harness"
	"gcsteering/internal/trace"
)

// benchSchemaVersion versions the BENCH_*.json document shape.
const benchSchemaVersion = 1

// benchDoc is the emitted document. Rates are wall-clock: a simulated
// nanosecond costs far less than a real one, so events/sec measures the
// engine, not the modeled hardware.
type benchDoc struct {
	Schema            int     `json:"schema"`
	GoVersion         string  `json:"go_version"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	ReplayRequests    int     `json:"replay_requests"`
	EventsPerSec      float64 `json:"events_per_sec"`
	SimulatedGBPerSec float64 `json:"simulated_gb_per_sec"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	Fig1GridWallMs    float64 `json:"fig1_grid_wall_ms"`
	ClusterGridWallMs float64 `json:"cluster_grid_wall_ms"`
}

// emitReplay builds a fresh system per iteration and replays one HPC_W
// synthesis end to end — the same unit of work as BenchmarkEndToEndReplay,
// instrumented for throughput instead of latency. Only Replay itself runs
// inside the timed window: system construction (prefill), workload
// synthesis, and trace statistics are setup, and timing them would dilute
// events/sec into a measurement of everything except the engine.
func emitReplay(t *testing.T, requests int) (eventsPerSec, gbPerSec float64, allocsPerOp int64) {
	var events uint64
	var bytes int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		events, bytes = 0, 0
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg := gcsteering.DefaultConfig()
			sys, err := gcsteering.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := cfg.GenerateWorkload("HPC_W", requests)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := sys.Replay(tr); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			events += sys.Events()
			bytes += trace.ComputeStats(tr).TotalBytes
			b.StartTimer()
		}
	})
	secs := r.T.Seconds()
	if secs <= 0 || r.N == 0 {
		t.Fatal("replay benchmark measured no time")
	}
	return float64(events) / secs, float64(bytes) / 1e9 / secs, r.AllocsPerOp()
}

// emitGridWallMs times one full run of an experiment at the given request
// budget and returns milliseconds per run.
func emitGridWallMs(t *testing.T, o harness.Options, run func(harness.Options) error) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := run(o); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.N == 0 {
		t.Fatal("grid benchmark did not run")
	}
	return float64(r.NsPerOp()) / 1e6
}

func TestEmitBenchJSON(t *testing.T) {
	out := os.Getenv("GCS_BENCH_OUT")
	if out == "" {
		t.Skip("set GCS_BENCH_OUT=<path> to emit the benchmark document")
	}
	const requests = 3000
	doc := benchDoc{
		Schema:         benchSchemaVersion,
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		ReplayRequests: requests,
	}
	doc.EventsPerSec, doc.SimulatedGBPerSec, doc.AllocsPerOp = emitReplay(t, requests)

	o := benchOptions()
	doc.Fig1GridWallMs = emitGridWallMs(t, o, func(o harness.Options) error {
		_, err := harness.Fig1(o)
		return err
	})
	doc.ClusterGridWallMs = emitGridWallMs(t, o, func(o harness.Options) error {
		_, err := harness.Cluster(o)
		return err
	})

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %s", out, data)
}
