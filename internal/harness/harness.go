// Package harness defines and runs the paper's experiments: one function
// per table/figure of the evaluation section, a parallel grid runner that
// fans independent simulations out over a worker pool, and text renderers
// for the result tables.
//
// The harness is the only component that runs concurrently: each cell of
// an experiment grid is a self-contained deterministic simulation, so the
// grid maps perfectly onto a fan-out/fan-in worker pool.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	"gcsteering"
)

// Options tunes an experiment run.
type Options struct {
	// MaxRequests caps the trace length per cell (0 = the harness default
	// of 8000; the paper's full request counts are impractical for a quick
	// regeneration — pass larger values for higher fidelity).
	MaxRequests int
	// Workers bounds the parallel simulations (0 = GOMAXPROCS).
	Workers int
	// Seed offsets all cell seeds for replication studies.
	Seed int64
	// Repeats averages each replay-grid cell over this many seeds (0 = 1),
	// shifting the seed by 1000 per repeat. The paper's normalized bars are
	// single measurements; averaging tames the simulator's run-to-run
	// variance. Cluster, Chaos and the text experiments (Fig1, Table1, Fig2,
	// Endurance) are single-seed.
	Repeats int
	// Base overrides the per-cell base configuration (nil = BaseConfig).
	Base func() gcsteering.Config
	// Trace, when non-nil, receives the structured event stream of the
	// sequential tracing-aware experiments (currently Fig1, which separates
	// its per-scheme runs with run-start events). Parallel grid experiments
	// ignore it: one tracer cannot be shared between concurrently running
	// engines. The caller flushes it.
	Trace *gcsteering.Tracer
	// SeriesOut, when non-nil, receives the windowed time series of
	// tracing-aware experiments as CSV (Fig1 writes one labelled block per
	// scheme and enables per-window quantiles for those runs).
	SeriesOut io.Writer
}

func (o Options) maxRequests() int {
	if o.MaxRequests <= 0 {
		return 8000
	}
	return o.MaxRequests
}

func (o Options) repeats() int {
	if o.Repeats <= 0 {
		return 1
	}
	return o.Repeats
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o Options) base() gcsteering.Config {
	if o.Base != nil {
		cfg := o.Base()
		cfg.Seed += o.Seed
		return cfg
	}
	cfg := BaseConfig()
	cfg.Seed += o.Seed
	return cfg
}

// BaseConfig is the default experiment configuration: the paper's main
// setup (RAID5, 5 SSDs, 64 KB stripe unit) over a device geometry scaled
// for fast simulation.
func BaseConfig() gcsteering.Config {
	// The library defaults carry the calibrated geometry and scheme
	// behaviour; the harness uses them unchanged.
	return gcsteering.DefaultConfig()
}

// meanMetric names a grid's primary metric.
const meanMetric = "mean response time (µs)"

// Cell addresses one measurement in an experiment grid.
type Cell struct {
	Workload string
	Variant  string
}

// Grid holds an experiment's measurements: workloads × variants, a primary
// metric (mean response time in µs) plus named auxiliary metrics.
type Grid struct {
	Title     string
	Workloads []string
	Variants  []string
	Mean      map[Cell]float64            // mean response time, µs
	Aux       map[string]map[Cell]float64 // e.g. "GC count"
}

func newGrid(title string, workloads, variants []string) *Grid {
	return &Grid{
		Title:     title,
		Workloads: workloads,
		Variants:  variants,
		Mean:      make(map[Cell]float64),
		Aux:       make(map[string]map[Cell]float64),
	}
}

func (g *Grid) addAux(metric string, c Cell, v float64) {
	m := g.Aux[metric]
	if m == nil {
		m = make(map[Cell]float64)
		g.Aux[metric] = m
	}
	m[c] = v
}

// Normalized returns the primary metric normalized per workload to the
// given base variant (the paper's figures normalize to LGC).
func (g *Grid) Normalized(base string) map[Cell]float64 {
	out := make(map[Cell]float64, len(g.Mean))
	for _, w := range g.Workloads {
		b := g.Mean[Cell{w, base}]
		for _, v := range g.Variants {
			c := Cell{w, v}
			if b > 0 {
				out[c] = g.Mean[c] / b
			}
		}
	}
	return out
}

// GeoMeanNormalized returns, per variant, the geometric mean across
// workloads of the metric normalized to base — the "on average X% lower"
// summary statistic the paper quotes.
func (g *Grid) GeoMeanNormalized(base string) map[string]float64 {
	norm := g.Normalized(base)
	out := make(map[string]float64, len(g.Variants))
	for _, v := range g.Variants {
		prod, n := 1.0, 0
		for _, w := range g.Workloads {
			if x := norm[Cell{w, v}]; x > 0 {
				prod *= x
				n++
			}
		}
		if n > 0 {
			out[v] = math.Pow(prod, 1/float64(n))
		}
	}
	return out
}

// Render prints the grid: raw µs, then normalized to base (if non-empty),
// then each auxiliary metric.
func (g *Grid) Render(base string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", g.Title)
	g.renderMetric(&b, meanMetric, g.Mean, "%.1f")
	if base != "" {
		norm := g.Normalized(base)
		g.renderMetric(&b, fmt.Sprintf("normalized to %s", base), norm, "%.3f")
		gm := g.GeoMeanNormalized(base)
		fmt.Fprintf(&b, "geometric mean vs %s:", base)
		for _, v := range g.Variants {
			fmt.Fprintf(&b, "  %s=%.3f", v, gm[v])
		}
		fmt.Fprintln(&b)
	}
	for _, name := range sortedKeys(g.Aux) {
		g.renderMetric(&b, name, g.Aux[name], "%.1f")
	}
	return b.String()
}

func (g *Grid) renderMetric(b *strings.Builder, name string, data map[Cell]float64, format string) {
	fmt.Fprintf(b, "-- %s --\n", name)
	tw := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload")
	for _, v := range g.Variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for _, w := range g.Workloads {
		fmt.Fprintf(tw, "%s", w)
		for _, v := range g.Variants {
			fmt.Fprintf(tw, "\t"+format, data[Cell{w, v}])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// gridJSON is the wire form of a Grid: every metric as a table keyed by
// workload then variant, so consumers need no knowledge of the Cell type.
type gridJSON struct {
	Title     string                                   `json:"title"`
	Workloads []string                                 `json:"workloads"`
	Variants  []string                                 `json:"variants"`
	Metrics   map[string]map[string]map[string]float64 `json:"metrics"`
}

// MarshalJSON implements json.Marshaler: the primary metric appears under
// meanMetric alongside the auxiliary metrics.
func (g *Grid) MarshalJSON() ([]byte, error) {
	out := gridJSON{
		Title:     g.Title,
		Workloads: g.Workloads,
		Variants:  g.Variants,
		Metrics:   make(map[string]map[string]map[string]float64, 1+len(g.Aux)),
	}
	add := func(name string, data map[Cell]float64) {
		t := make(map[string]map[string]float64, len(g.Workloads))
		for _, w := range g.Workloads {
			row := make(map[string]float64, len(g.Variants))
			for _, v := range g.Variants {
				if x, ok := data[Cell{w, v}]; ok {
					row[v] = x
				}
			}
			t[w] = row
		}
		out.Metrics[name] = t
	}
	add(meanMetric, g.Mean)
	for name, data := range g.Aux {
		add(name, data)
	}
	return json.Marshal(out)
}

func sortedKeys(m map[string]map[Cell]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// variant is one column of a grid: its name and its change to the cell's
// Config.
type variant struct {
	name string
	set  func(*gcsteering.Config)
}

func names(vs []variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.name
	}
	return out
}

// unit converts a metric from the unit Results reports it in to the unit
// the grid prints.
type unit uint8

const (
	asIs      unit = iota
	nsToUs         // nanoseconds → µs
	toPercent      // ratio → %
)

func (u unit) of(v float64) float64 {
	switch u {
	case nsToUs:
		return v / 1e3
	case toPercent:
		return 100 * v
	}
	return v
}

// metric is one named value a cell reports from one replay. The pipeline
// averages v over the repeats in the unit Results reports it in and
// converts once after, so a single-seed cell reports exactly unit.of(v).
type metric struct {
	name string
	v    float64
	unit unit
}

// latencyMean is the primary metric every replay cell reports.
func latencyMean(r *gcsteering.Results) metric {
	return metric{meanMetric, r.Latency.Mean, nsToUs}
}

// gridCell is one cell of a replay grid: the Config and Table I profile it
// replays and the metrics it reports. Each replay generates the trace from
// cfg, lets prepare size trace-dependent knobs (a fault plan, a power cut,
// a scrub cap) on its copy of cfg, then builds one System and replays.
type gridCell struct {
	cell    Cell
	cfg     gcsteering.Config
	profile string
	// prepare, when set, adjusts the config from the trace before New.
	prepare func(cfg *gcsteering.Config, tr gcsteering.Trace)
	// metrics, when set, reports the auxiliary metrics of one replay; the
	// mean response time is always recorded.
	metrics func(r *gcsteering.Results) []metric
	// run, when set, replaces the single replay for a cell measured over
	// several (Fig11) and returns every metric, the mean included.
	run func(cfg gcsteering.Config, tr gcsteering.Trace) ([]metric, error)
}

// replay builds one System from cfg and replays tr on it.
func replay(cfg gcsteering.Config, tr gcsteering.Trace) (*gcsteering.Results, error) {
	sys, err := gcsteering.New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Replay(tr)
}

// once runs the cell a single time with its seed shifted by shift.
func (c gridCell) once(maxRequests int, shift int64) ([]metric, error) {
	cfg := c.cfg
	cfg.Seed += shift
	tr, err := cfg.GenerateWorkload(c.profile, maxRequests)
	if err != nil {
		return nil, err
	}
	if c.prepare != nil {
		c.prepare(&cfg, tr)
	}
	if c.run != nil {
		return c.run(cfg, tr)
	}
	r, err := replay(cfg, tr)
	if err != nil {
		return nil, err
	}
	ms := []metric{latencyMean(r)}
	if c.metrics != nil {
		ms = append(ms, c.metrics(r)...)
	}
	return ms, nil
}

// measure runs the cell o.repeats() times, shifting the seed by 1000 per
// repeat, and averages each metric over the runs that report it.
func (c gridCell) measure(o Options) (map[string]float64, error) {
	type running struct {
		mean float64
		n    int
		unit unit
	}
	acc := make(map[string]*running)
	for i := 0; i < o.repeats(); i++ {
		ms, err := c.once(o.maxRequests(), int64(i)*1000)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			a := acc[m.name]
			if a == nil {
				a = &running{unit: m.unit}
				acc[m.name] = a
			}
			a.n++
			a.mean += (m.v - a.mean) / float64(a.n)
		}
	}
	out := make(map[string]float64, len(acc))
	for name, a := range acc {
		out[name] = a.unit.of(a.mean)
	}
	return out, nil
}

// replayGrid runs the workloads × variants grid: every cell copies tmpl,
// applies its variant to the copy's cfg and replays its row's profile.
func replayGrid(o Options, title string, workloads []string, variants []variant, tmpl gridCell) (*Grid, error) {
	g := newGrid(title, workloads, names(variants))
	cells := make([]gridCell, 0, len(workloads)*len(variants))
	for _, w := range workloads {
		for _, v := range variants {
			c := tmpl
			c.cell, c.profile = Cell{w, v.name}, w
			v.set(&c.cfg)
			cells = append(cells, c)
		}
	}
	return runCells(g, cells, o)
}

// runCells measures the cells on a worker pool and records their metrics
// into g from a single goroutine, so the grid maps need no locking.
func runCells(g *Grid, cells []gridCell, o Options) (*Grid, error) {
	type outcome struct {
		idx int
		ms  map[string]float64
		err error
	}
	jobCh := make(chan int)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < o.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				ms, err := cells[idx].measure(o)
				outCh <- outcome{idx, ms, err}
			}
		}()
	}
	go func() {
		for i := range cells {
			jobCh <- i
		}
		close(jobCh)
		wg.Wait()
		close(outCh)
	}()
	var firstErr error
	for out := range outCh {
		c := cells[out.idx].cell
		if out.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cell %v: %w", c, out.err)
			}
			continue
		}
		for name, v := range out.ms {
			if name == meanMetric {
				g.Mean[c] = v
			} else {
				g.addAux(name, c, v)
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return g, nil
}
