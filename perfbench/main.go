// Command perfbench is the simulator's host-time benchmark. It runs one of
// three workloads through the public entry points (gcsteering.New,
// Replay/ReplayDuringRebuild, harness.Fig7), checks the simulated output
// against recorded goldens, and prints its metrics; the last line of
// standard output is one JSON object. See README.md for the workloads,
// the metrics and what each is expected to move.
//
//	perfbench -workload hpc_w_steer -seed 0 -seconds 20 -trace 0
//	perfbench record -seeds 0-99 [-workload all] [-force]
//	perfbench compare base.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"gcsteering"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 9

// minUnits is the fewest timed units a phase runs, even past its deadline.
const minUnits = 3

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			exitOn(recordCmd(os.Args[2:]))
			return
		case "compare":
			exitOn(compareCmd(os.Args[2:]))
			return
		}
	}
	exitOn(runCmd(os.Args[1:]))
}

func exitOn(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	var fe failure
	if errors.As(err, &fe) {
		os.Exit(fe.code)
	}
	os.Exit(2)
}

// failure is a run that completed and printed its result but did not pass:
// wrong simulated output (code 1) or a failed purpose self-check (code 3).
type failure struct {
	code int
	msg  string
}

func (f failure) Error() string { return f.msg }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies the machine and toolchain a result was measured on.
// Results with different stamps are never compared.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func machineStamp() stamp {
	return stamp{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

func (s stamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s %s/%s", s.NProc, s.GOMAXPROCS, s.GoVersion, s.GOOS, s.GOARCH)
}

// cellRecord is a cell's verdict as written to the result file.
type cellRecord struct {
	Name     string `json:"name"`
	Digest   string `json:"digest"`
	Golden   string `json:"golden,omitempty"`
	Requests int    `json:"requests"`
	Failed   int    `json:"failed"`
}

// result is everything one run writes to its result file.
type result struct {
	Stamp     stamp                         `json:"stamp"`
	Workload  string                        `json:"workload"`
	Seed      int64                         `json:"seed"`
	Trace     bool                          `json:"trace"`
	Seconds   int                           `json:"seconds"`
	Golden    bool                          `json:"golden_recorded"`
	Correct   bool                          `json:"correct"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	Metrics   map[string]metric             `json:"metrics"`
	UnitS     []float64                     `json:"unit_cpu_seconds"`
	UnitWallS []float64                     `json:"unit_wall_seconds"`
	SetupS    []float64                     `json:"setup_cpu_seconds"`
	RefS      []float64                     `json:"reference_cpu_seconds"`
	Speed     float64                       `json:"speed_factor"`
	Cells     []cellRecord                  `json:"cells"`
	Model     map[string]map[string]float64 `json:"model,omitempty"`
	Checks    []purposeCheck                `json:"purpose_checks,omitempty"`
	Problems  []string                      `json:"problems,omitempty"`
}

// addUnit records one timed unit's CPU and wall seconds.
func (r *result) addUnit(w stopwatch) {
	wall, cpu := w.elapsed()
	r.UnitS = append(r.UnitS, cpu)
	r.UnitWallS = append(r.UnitWallS, wall)
}

// stopwatch reads wall time and the process's CPU time together. Timed
// metrics use CPU time (user plus system, all threads): on a virtual
// machine wall time also counts the time the hypervisor gives the CPU to
// other guests, which here swings unchanged code's wall time by tens of
// percent. Wall time is kept in the result file for reference.
type stopwatch struct {
	wall time.Time
	cpu  int64
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

// elapsed returns the wall and CPU seconds since the watch started.
func (w stopwatch) elapsed() (wall, cpu float64) {
	return time.Since(w.wall).Seconds(), float64(processCPU()-w.cpu) / 1e9
}

// processCPU is the user plus system CPU time the process has used, in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func (r *result) count(v cellVerdict) {
	r.Attempted += v.requests
	r.Failed += v.failed()
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "hpc_w_steer", "workload: hpc_w_steer, fig7_cells or hpc_r_rebuild")
	seed := fs.Int64("seed", 0, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long the run measures, in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result files, profiles and spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	b, ok := benchByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	gold := g.lookup(b.name, *seed)
	cells := b.cells(*seed)
	if gold != nil && len(gold) != len(cells) {
		return fmt.Errorf("goldens for %s seed %d hold %d cells, the workload has %d: re-record them", b.name, *seed, len(gold), len(cells))
	}
	r := &result{Stamp: machineStamp(), Workload: b.name, Seed: *seed, Trace: *traced == 1, Seconds: *seconds, Golden: gold != nil}
	fmt.Println("stamp", r.Stamp)
	if gold == nil {
		fmt.Fprintf(os.Stderr, "perfbench: no golden recorded for %s seed %d: simulated output is checked for run-to-run consistency only\n", b.name, *seed)
	}
	budget := time.Duration(*seconds) * time.Second
	prefix := filepath.Join(*out, fmt.Sprintf("%s-seed%d", b.name, *seed))
	if r.Trace {
		err = runTraced(r, b, cells, gold, budget, prefix)
	} else {
		err = runPlain(r, b, cells, gold, budget)
	}
	if err != nil {
		return err
	}
	return finish(r, prefix)
}

// setUp synthesizes every cell's inputs from the seed and builds one System
// of the first cell as a warm-up, setupReps times, each after a speed probe
// (which starts from a collected heap); it returns the traces of the last
// repetition.
func setUp(r *result, cells []cell, probe *speedProbe) ([]gcsteering.Trace, error) {
	var traces []gcsteering.Trace
	for i := 0; i < setupReps; i++ {
		traces = nil
		probe.measure()
		w := startWatch()
		for _, c := range cells {
			tr, err := synthesize(c)
			if err != nil {
				return nil, err
			}
			traces = append(traces, tr)
		}
		sys, err := gcsteering.New(cells[0].cfg)
		if err != nil {
			return nil, err
		}
		runtime.KeepAlive(sys)
		_, cpu := w.elapsed()
		r.SetupS = append(r.SetupS, cpu)
	}
	r.Metrics = map[string]metric{}
	return traces, nil
}

// liveHeapMB forces a collection and returns the live heap in MB; the
// caller keeps what it measures reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runPlain is the end-to-end run: timed units with tracing off.
func runPlain(r *result, b bench, cells []cell, gold []string, budget time.Duration) error {
	probe := &speedProbe{}
	traces, err := setUp(r, cells, probe)
	if err != nil {
		return err
	}
	requests := 0
	for _, tr := range traces {
		requests += len(tr)
	}
	var heaps []float64
	deadline := time.Now().Add(budget)
	if b.grid {
		// Timed units run the harness grid; a sequential pass afterwards
		// replays each cell through the System API to check settlement and
		// the digest, and every grid must agree with that pass per cell.
		k := newChecker(r, cells, gold)
		var grids [][]gridPair
		for len(r.UnitS) < minUnits || time.Now().Before(deadline) {
			probe.measure()
			w := startWatch()
			g, err := runGrid(r.Seed)
			if err != nil {
				return err
			}
			r.addUnit(w)
			grids = append(grids, gridPairs(g, cells))
		}
		verdicts := make([]cellVerdict, len(cells))
		pairs := make([]gridPair, len(cells))
		maxHeap := 0.0
		for i, c := range cells {
			sys, res, st, err := replayCell(c, traces[i], direct)
			if err != nil {
				return err
			}
			verdicts[i] = k.check(i, res, st)
			pairs[i] = pairOf(res)
			if h := liveHeapMB(); h > maxHeap {
				maxHeap = h
			}
			runtime.KeepAlive(sys)
		}
		heaps = append(heaps, maxHeap)
		for u, gp := range grids {
			for i, v := range verdicts {
				if gp[i] != pairs[i] {
					v.digestBad = true
					r.problem("grid unit %d cell %s: (gc, p99) = %v, System API replay gives %v", u, v.name, gp[i], pairs[i])
				}
				r.count(v)
			}
		}
	} else {
		k := newChecker(r, cells, gold)
		for len(r.UnitS) < minUnits || time.Now().Before(deadline) {
			probe.measure()
			w := startWatch()
			sys, res, st, err := replayCell(cells[0], traces[0], direct)
			if err != nil {
				return err
			}
			r.addUnit(w)
			r.count(k.check(0, res, st))
			heaps = append(heaps, liveHeapMB())
			runtime.KeepAlive(sys)
			runtime.KeepAlive(res)
		}
	}
	r.RefS, r.Speed = probe.samples, probe.factor()
	var rates []float64
	for _, s := range r.UnitS {
		rates = append(rates, float64(requests)/s)
	}
	r.Metrics["run_s"] = metric{median(r.UnitS) * r.Speed, "s"}
	r.Metrics["replay_req_per_s"] = metric{median(rates) / r.Speed, "req/s"}
	r.Metrics["setup_s"] = metric{median(r.SetupS) * r.Speed, "s"}
	r.Metrics["heap_live_mb"] = metric{median(heaps), "MB"}
	r.Metrics["req_ok_ratio"] = metric{float64(r.Attempted-r.Failed) / float64(r.Attempted), "ratio"}
	return nil
}

func (r *result) addCell(v cellVerdict) {
	r.Cells = append(r.Cells, cellRecord{Name: v.name, Digest: v.digest, Golden: v.golden, Requests: v.requests, Failed: v.failed()})
	if v.digestBad {
		r.problem("cell %s: digest %s, want %s", v.name, v.digest, v.golden)
	}
	if v.notOnce > 0 {
		r.problem("cell %s: %d of %d requests did not settle exactly once", v.name, v.notOnce, v.requests)
	}
}

// finish prints the metrics, writes the result file and prints the final
// JSON line; it returns a failure when the run did not pass.
func finish(r *result, prefix string) error {
	r.Correct = r.Failed == 0 && len(r.Problems) == 0 && r.Attempted > 0
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.Trace {
		mode = "traced"
	}
	if err := os.WriteFile(prefix+"-"+mode+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return failure{1, fmt.Sprintf("%s seed %d: simulated output check failed (%d of %d requests failed)", r.Workload, r.Seed, r.Failed, r.Attempted)}
	}
	var bad []string
	for _, c := range r.Checks {
		if !c.Pass {
			bad = append(bad, c.Name)
		}
	}
	if len(bad) > 0 {
		return failure{3, fmt.Sprintf("%s: purpose self-check failed: %s", r.Workload, strings.Join(bad, ", "))}
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
