// Command gcsbench regenerates the tables and figures of the paper's
// evaluation section from the simulator.
//
// Usage:
//
//	gcsbench -experiment fig7a [-requests 20000] [-workers 8] [-seed 1] [-repeats 3]
//
// Run with -list-experiments to print the registry of experiments; all
// runs every one of them in sequence.
//
// -json <path> additionally writes the machine-readable results of the run
// (every grid's full metric tables) to the given file.
//
// -trace <path> streams the structured simulation event log (JSONL, one
// event per line) of the tracing-aware experiments — currently fig1, whose
// sequential per-scheme runs are separated by "run-start" events. -timeseries
// <path> writes fig1's windowed latency/gauge time series as CSV, one
// labelled block per scheme. Parallel grid experiments ignore both flags.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"gcsteering"
	"gcsteering/internal/harness"
)

// experimentOut is one experiment's result in the -json document: grid
// experiments carry their metric tables, text experiments their rendering.
type experimentOut struct {
	Name string        `json:"name"`
	Text string        `json:"text,omitempty"`
	Grid *harness.Grid `json:"grid,omitempty"`
}

// jsonSchemaVersion is bumped whenever the shape of jsonDoc changes, so
// downstream consumers can gate their parsers on it.
const jsonSchemaVersion = 1

// jsonDoc is the top-level -json document.
type jsonDoc struct {
	Schema      int             `json:"schema"`
	Requests    int             `json:"requests"`
	Seed        int64           `json:"seed"`
	Repeats     int             `json:"repeats"`
	Experiments []experimentOut `json:"experiments"`
}

// experiment is one row of the registry: a name -experiment accepts (plus
// aliases), its -list-experiments blurb, and how to run it. A grid
// experiment renders normalized to base ("" = raw values only).
type experiment struct {
	name    string
	aliases []string
	blurb   string
	text    func(harness.Options) (string, error)
	grid    func(harness.Options) (*harness.Grid, error)
	base    string
}

// experiments is the registry, in the -experiment all run order.
var experiments = []experiment{
	{name: "table1", blurb: "synthetic workload generator check against the paper's Table I", text: harness.Table1},
	{name: "fig1", blurb: "performance-variability timeline per GC scheme", text: harness.Fig1},
	{name: "fig2", blurb: "read/write distribution over RI/WI/MIX pages per MSR trace", text: harness.Fig2},
	{name: "fig7a", aliases: []string{"fig7b", "fig7"}, blurb: "mean response time and GC counts per scheme", grid: harness.Fig7, base: "LGC"},
	{name: "fig8", blurb: "array-size sweep", grid: harness.Fig8, base: "5 SSDs"},
	{name: "fig9", blurb: "stripe-unit sweep", grid: harness.Fig9, base: "64KB"},
	{name: "fig10", blurb: "staging configuration comparison (reserved vs dedicated)", grid: harness.Fig10, base: "Reserved"},
	{name: "fig11", blurb: "response time and rebuild duration during reconstruction", grid: harness.Fig11},
	{name: "raid6", blurb: "RAID6 extension of the main comparison", grid: harness.RAID6, base: "LGC"},
	{name: "endurance", blurb: "per-scheme flash wear (erases, write amplification)", text: harness.Endurance},
	{name: "faults", blurb: "reliability grid: failures, rebuilds, window of vulnerability", grid: harness.Faults},
	{name: "scrub", blurb: "self-healing grid: patrol scrub and hedged reads vs seeded defects", grid: harness.Scrub},
	{name: "failslow", blurb: "fail-slow grid: health quarantine, retries, hedged reads vs a slow member", grid: harness.FailSlow, base: "none"},
	{name: "cluster", blurb: "fleet grid: 8 arrays × 16 tenants, hash-only vs GC/rebuild-aware routing", grid: harness.Cluster, base: "hash-only"},
	{name: "chaos", blurb: "failure-domain grid: whole-array crashes and chaos, unreplicated vs replicated writes", grid: harness.Chaos, base: "no-repl"},
	{name: "crashconsist", blurb: "crash-consistency grid: power loss mid-write, intent journal vs full-scrub remount", grid: harness.CrashConsist},
}

// lookup returns the registry row name or one of its aliases selects.
func lookup(name string) (experiment, bool) {
	for _, e := range experiments {
		if e.name == name || slices.Contains(e.aliases, name) {
			return e, true
		}
	}
	return experiment{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses argv, executes the selected
// experiments writing reports to stdout and diagnostics to stderr, and
// returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which      = fs.String("experiment", "all", "which experiment to run (see -list-experiments), or all")
		listExps   = fs.Bool("list-experiments", false, "print the experiment registry and exit")
		requests   = fs.Int("requests", 8000, "requests per workload (scaled-down replay of the Table I traces)")
		workers    = fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		seed       = fs.Int64("seed", 0, "seed offset for replication")
		repeats    = fs.Int("repeats", 1, "average each replay-grid cell over this many seeds (cluster, chaos, fig1, table1, fig2 and endurance are single-seed)")
		jsonPath   = fs.String("json", "", "also write results as JSON to this file")
		tracePath  = fs.String("trace", "", "write the simulation event log (JSONL) of tracing-aware experiments (fig1) to this file")
		seriesPath = fs.String("timeseries", "", "write the windowed latency time series (CSV) of tracing-aware experiments (fig1) to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "gcsbench: "+format+"\n", args...)
		return 1
	}
	if *listExps {
		// Sorted, so the listing is stable as the registry grows (the run
		// order of -experiment all is the registry's).
		sorted := slices.Clone(experiments)
		slices.SortFunc(sorted, func(a, b experiment) int { return strings.Compare(a.name, b.name) })
		for _, e := range sorted {
			blurb := e.blurb
			if len(e.aliases) > 0 {
				blurb += " (aliases: " + strings.Join(e.aliases, ", ") + ")"
			}
			fmt.Fprintf(stdout, "%-12s %s\n", e.name, blurb)
		}
		fmt.Fprintf(stdout, "%-12s %s\n", "all", "run every experiment above in sequence")
		return 0
	}

	// Resolve the experiment list before touching any output file, so a
	// typo'd -experiment exits cleanly without side effects.
	runs := experiments
	if n := strings.ToLower(*which); n != "all" {
		e, ok := lookup(n)
		if !ok {
			all := make([]string, len(experiments))
			for i, e := range experiments {
				all[i] = e.name
			}
			return fail("unknown experiment %q (have %s, all; see -list-experiments)", n, strings.Join(all, ", "))
		}
		e.name = n // the -json entry records the name the row was selected by
		runs = []experiment{e}
	}

	o := harness.Options{MaxRequests: *requests, Workers: *workers, Seed: *seed, Repeats: *repeats}
	doc := jsonDoc{Schema: jsonSchemaVersion, Requests: *requests, Seed: *seed, Repeats: *repeats}

	var traceFile *os.File
	var tracer *gcsteering.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail("create %s: %v", *tracePath, err)
		}
		traceFile = f
		tracer = gcsteering.NewTracer(f)
		o.Trace = tracer
	}
	var seriesFile *os.File
	var seriesBuf *bufio.Writer
	if *seriesPath != "" {
		f, err := os.Create(*seriesPath)
		if err != nil {
			return fail("create %s: %v", *seriesPath, err)
		}
		seriesFile = f
		seriesBuf = bufio.NewWriter(f)
		o.SeriesOut = seriesBuf
	}

	for _, e := range runs {
		out, err := runOne(e, o, stdout)
		if err != nil {
			return fail("%v", err)
		}
		doc.Experiments = append(doc.Experiments, out)
	}

	// Flush is nil-safe (the tracer's nil-receiver contract); only the
	// file handle needs a presence check.
	if err := tracer.Flush(); err != nil {
		return fail("write trace %s: %v", *tracePath, err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fail("close %s: %v", *tracePath, err)
		}
	}
	if seriesBuf != nil {
		if err := seriesBuf.Flush(); err != nil {
			return fail("write timeseries %s: %v", *seriesPath, err)
		}
		if err := seriesFile.Close(); err != nil {
			return fail("close %s: %v", *seriesPath, err)
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail("encode json: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return fail("write %s: %v", *jsonPath, err)
		}
	}
	return 0
}

// runOne executes one experiment, renders its report to stdout, and returns
// its -json entry.
func runOne(e experiment, o harness.Options, stdout io.Writer) (experimentOut, error) {
	out := experimentOut{Name: e.name}
	if e.text != nil {
		s, err := e.text(o)
		if err != nil {
			return out, err
		}
		fmt.Fprint(stdout, s)
		out.Text = s
	} else {
		g, err := e.grid(o)
		if err != nil {
			return out, err
		}
		fmt.Fprint(stdout, g.Render(e.base))
		out.Grid = g
	}
	fmt.Fprintln(stdout)
	return out, nil
}
