package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"gcsteering"
	"gcsteering/internal/harness"
)

// profileHz is the CPU profiling rate the traced run asks for, five times
// the runtime/pprof default, so that the profiled phase collects the
// ~2,000 samples (minSamples) each layer share should rest on. Kernels
// with a coarse timer tick deliver fewer; see cpuProfile.cpuNs.
const profileHz = 500

// minSamples is the sample count below which layer shares are flagged as
// resting on too few samples.
const minSamples = 2000

// layers are the module packages the traced run reports self time for.
var layers = []string{"sim", "flash", "ssd", "raid", "core", "sched", "rebuild", "workload", "metrics", "harness", "gcsteering"}

// countingSink is the obs tracer's writer in the traced run: it counts the
// JSON-lines events by kind instead of storing them.
type countingSink struct {
	kinds   map[string]int64
	partial []byte // an event line split across writes
}

func newCountingSink() *countingSink { return &countingSink{kinds: map[string]int64{}} }

var evKey = []byte(`"ev":"`)

func (s *countingSink) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			s.partial = append(s.partial, p...)
			break
		}
		line := p[:nl]
		if len(s.partial) > 0 {
			s.partial = append(s.partial, line...)
			line = s.partial
		}
		s.countLine(line)
		s.partial = s.partial[:0]
		p = p[nl+1:]
	}
	return n, nil
}

func (s *countingSink) countLine(line []byte) {
	i := bytes.Index(line, evKey)
	if i < 0 {
		s.kinds["?"]++
		return
	}
	rest := line[i+len(evKey):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		s.kinds[string(rest[:j])]++
	}
}

// span is one interval the benchmark records around its own calls into the
// program. Spans of one cell share its cell id; the cell span is the
// parent of its construct, generate, replay and aggregate spans.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Cell    int    `json:"cell"`
	Name    string `json:"name"`
	Phase   string `json:"phase"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"` // wall time
	CPUUs   int64  `json:"cpu_us"` // process CPU time over the span
}

type spanLog struct {
	t0    time.Time
	spans []span
	cells int
}

// add appends a span and returns its id.
func (l *spanLog) add(sp span) int {
	sp.ID = len(l.spans) + 1
	l.spans = append(l.spans, sp)
	return sp.ID
}

// purposeCheck is one traced-run assertion that a workload still exercises
// what it was chosen for.
type purposeCheck struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Want  string  `json:"want"`
	Pass  bool    `json:"pass"`
}

// runTraced is the per-layer run. Phase A repeats the end-to-end unit
// under a CPU profile (layer self time, allocations). Phase B replays the
// cells one at a time with spans around each call (construct, generate,
// replay, aggregate). Phase C repeats B with the obs tracer feeding a
// counting sink, for event counts, obs self time and the tracing overhead.
func runTraced(r *result, b bench, cells []cell, gold []string, budget time.Duration, prefix string) error {
	traces, err := setUp(r, cells, &speedProbe{})
	if err != nil {
		return err
	}
	k := newChecker(r, cells, gold)
	check := func(i int, res *gcsteering.Results, st *settlement) { r.count(k.check(i, res, st)) }
	log := &spanLog{t0: time.Now()}

	// Phase A: the end-to-end unit under the profiler.
	var a profiled
	prof, err := profileCPU(prefix+"-cpu.pprof", func() error {
		var err error
		a, err = profilePhase(r, b, cells, traces, check, budget*2/3)
		return err
	})
	if err != nil {
		return err
	}
	a.prof = prof

	// Phase B: sequential cells with spans, tracing off.
	var plain []seqUnit
	deadline := time.Now().Add(budget / 6)
	for len(plain) < 1 || time.Now().Before(deadline) {
		u, err := seqPass(cells, log, "spans", false, check)
		if err != nil {
			return err
		}
		plain = append(plain, u)
	}
	// The grid units of phase A must agree with the System API replays.
	for u, gp := range a.grids {
		for i := range cells {
			if want := pairOf(plain[0].res[i]); gp[i] != want {
				r.problem("grid unit %d cell %s: (gc, p99) = %v, System API replay gives %v", u, cells[i].name, gp[i], want)
				r.Failed += plain[0].traceLens[i]
			}
			r.Attempted += plain[0].traceLens[i]
		}
	}

	// Phase C: phase B with the obs tracer on.
	var traced []seqUnit
	profC, err := profileCPU(prefix+"-cpu-traced.pprof", func() error {
		deadline := time.Now().Add(budget / 6)
		for len(traced) < 1 || time.Now().Before(deadline) {
			u, err := seqPass(cells, log, "traced", true, check)
			if err != nil {
				return err
			}
			traced = append(traced, u)
		}
		return nil
	})
	if err != nil {
		return err
	}
	spans, err := json.Marshal(log.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(prefix+"-spans.json", spans, 0o644); err != nil {
		return err
	}

	layerMetrics(r.Metrics, a, plain, traced, profC)
	if n := r.Metrics["profile.samples"].Value; n < minSamples {
		fmt.Fprintf(os.Stderr, "perfbench: warning: the profile holds %.0f samples (< %d); layer shares are coarse, raise -seconds\n", n, minSamples)
	}
	last := traced[len(traced)-1]
	r.Model = map[string]map[string]float64{}
	for i, res := range last.res {
		r.Model[cells[i].name] = modelStats(res)
	}
	r.Checks = purposeChecks(b, r.Metrics, a, plain[0], traces)
	printTraced(r)
	return nil
}

// profiled is what phase A measured.
type profiled struct {
	prof                *cpuProfile
	requests            int
	mallocs, allocBytes uint64
	grids               [][]gridPair // per grid unit, per cell
}

// profileCPU runs f under the CPU profiler at profileHz, writes the raw
// profile to path and returns it parsed.
func profileCPU(path string, f func() error) (*cpuProfile, error) {
	var buf bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it (the runtime
	// prints a note that the default rate could not be applied).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	cpu0 := processCPU()
	err := f()
	cpuNs := processCPU() - cpu0
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	p.cpuNs = cpuNs
	return p, nil
}

// profilePhase repeats the end-to-end unit for the budget, labelling each
// step for the profiler, and counts requests and allocations.
func profilePhase(r *result, b bench, cells []cell, traces []gcsteering.Trace,
	check func(int, *gcsteering.Results, *settlement), budget time.Duration) (profiled, error) {
	var a profiled
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx := context.Background()
	labelled := func(step string, f func()) {
		pprof.Do(ctx, pprof.Labels("step", step), func(context.Context) { f() })
	}
	deadline := time.Now().Add(budget)
	for len(r.UnitS) < minUnits || time.Now().Before(deadline) {
		w := startWatch()
		if b.grid {
			var err error
			labelled("grid", func() {
				var g *harness.Grid
				if g, err = runGrid(r.Seed); err == nil {
					a.grids = append(a.grids, gridPairs(g, cells))
				}
			})
			if err != nil {
				return a, err
			}
			for _, tr := range traces {
				a.requests += len(tr)
			}
		} else {
			_, res, st, err := replayCell(cells[0], traces[0], labelled)
			if err != nil {
				return a, err
			}
			r.addUnit(w)
			check(0, res, st)
			a.requests += len(traces[0])
			continue
		}
		r.addUnit(w)
	}
	runtime.ReadMemStats(&after)
	a.mallocs = after.Mallocs - before.Mallocs
	a.allocBytes = after.TotalAlloc - before.TotalAlloc
	return a, nil
}

// seqUnit is one sequential pass over a workload's cells with spans.
type seqUnit struct {
	seconds   float64            // CPU seconds of the pass
	steps     map[string]float64 // step CPU seconds summed over cells
	events    uint64             // engine events fired
	requests  int
	traceLens []int
	kinds     map[string]int64 // obs events by kind (traced passes)
	res       []*gcsteering.Results
}

// seqPass replays every cell through the System API, one after another,
// recording a cell span and its construct/generate/replay/aggregate
// children. With withTrace each cell gets an obs tracer writing to a
// counting sink.
func seqPass(cells []cell, log *spanLog, phase string, withTrace bool,
	check func(int, *gcsteering.Results, *settlement)) (seqUnit, error) {
	u := seqUnit{steps: map[string]float64{}, kinds: map[string]int64{}}
	pass := startWatch()
	for i, c := range cells {
		log.cells++
		id := log.cells
		cellStart := startWatch()
		parent := log.add(span{Cell: id, Name: "cell", Phase: phase, StartUs: cellStart.wall.Sub(log.t0).Microseconds()})
		step := func(name string, f func()) {
			w := startWatch()
			f()
			wall, cpu := w.elapsed()
			u.steps[name] += cpu
			log.add(span{Parent: parent, Cell: id, Name: name, Phase: phase, StartUs: w.wall.Sub(log.t0).Microseconds(),
				DurUs: int64(wall * 1e6), CPUUs: int64(cpu * 1e6)})
		}
		var sink *countingSink
		if withTrace {
			sink = newCountingSink()
			c.cfg.Trace = gcsteering.NewTracer(sink)
		}
		sys, res, st, err := replayCell(c, nil, step)
		if err != nil {
			return u, err
		}
		if withTrace {
			if err := c.cfg.Trace.Flush(); err != nil {
				return u, fmt.Errorf("%s: trace: %w", c.name, err)
			}
			for k, n := range sink.kinds {
				u.kinds[k] += n
			}
		}
		step("aggregate", func() { check(i, res, st) })
		u.events += sys.Events()
		u.requests += len(st.times)
		u.traceLens = append(u.traceLens, len(st.times))
		u.res = append(u.res, res)
		wall, cpu := cellStart.elapsed()
		log.spans[parent-1].DurUs, log.spans[parent-1].CPUUs = int64(wall*1e6), int64(cpu*1e6)
	}
	_, u.seconds = pass.elapsed()
	return u, nil
}

// layerMetrics fills the per-layer metrics from the three phases.
func layerMetrics(m map[string]metric, a profiled, plain, traced []seqUnit, profC *cpuProfile) {
	la := a.prof.byLayer("", "")
	perReq := func(ns int64) float64 { return float64(ns) / 1e3 / float64(a.requests) }
	for _, l := range layers {
		m[l+".self_us_per_req"] = metric{perReq(la.ns[l]), "us/req"}
	}
	m["other.self_us_per_req"] = metric{perReq(la.ns[layerOther]), "us/req"}
	m["runtime.gc_us_per_req"] = metric{perReq(la.ns[layerGC]), "us/req"}
	m["runtime.allocs_per_req"] = metric{float64(a.mallocs) / float64(a.requests), "allocs/req"}
	m["runtime.alloc_bytes_per_req"] = metric{float64(a.allocBytes) / float64(a.requests), "B/req"}
	m["profile.samples"] = metric{float64(la.samples), "count"}

	cells := float64(len(plain[0].traceLens))
	perCellMs := func(step string) float64 {
		var xs []float64
		for _, u := range plain {
			xs = append(xs, u.steps[step]*1e3/cells)
		}
		return median(xs)
	}
	m["gcsteering.construct_ms"] = metric{perCellMs("construct"), "ms"}
	m["workload.generate_ms"] = metric{perCellMs("generate"), "ms"}
	m["gcsteering.replay_ms"] = metric{perCellMs("replay"), "ms"}

	reqs := float64(plain[0].requests)
	evPerReq := float64(plain[0].events) / reqs
	m["sim.events_per_req"] = metric{evPerReq, "events/req"}
	m["sim.self_ns_per_event"] = metric{perReq(la.ns["sim"]) * 1e3 / evPerReq, "ns/event"}

	last := traced[len(traced)-1]
	subops := float64(last.kinds["subop"]) / reqs
	m["raid.subops_per_req"] = metric{subops, "subops/req"}
	perSubop := 0.0
	if subops > 0 {
		perSubop = perReq(la.ns["raid"]) * 1e3 / subops
	}
	m["raid.self_ns_per_subop"] = metric{perSubop, "ns/subop"}
	m["raid.degraded_reads_per_req"] = metric{float64(last.kinds["degraded-read"]) / reqs, "reads/req"}
	m["rebuild.units"] = metric{float64(last.kinds["rebuild-unit"]), "count"}
	m["core.reclaims_per_req"] = metric{float64(last.kinds["reclaim"]) / reqs, "runs/req"}
	var events int64
	for _, n := range last.kinds {
		events += n
	}
	m["obs.events_per_req"] = metric{float64(events) / reqs, "events/req"}
	lc := profC.byLayer("", "")
	m["obs.self_us_per_req"] = metric{float64(lc.ns["obs"]) / 1e3 / (reqs * float64(len(traced))), "us/req"}

	var plainS, tracedS []float64
	for _, u := range plain {
		plainS = append(plainS, u.seconds)
	}
	for _, u := range traced {
		tracedS = append(tracedS, u.seconds)
	}
	m["obs.trace_overhead_ratio"] = metric{median(tracedS) / median(plainS), "ratio"}
}

// purposeChecks assert that each workload still exercises what it was
// chosen for. A failing check makes the traced run exit non-zero.
func purposeChecks(b bench, m map[string]metric, a profiled, plain seqUnit, traces []gcsteering.Trace) []purposeCheck {
	var cellSecs float64
	for _, s := range []string{"construct", "generate", "replay", "aggregate"} {
		cellSecs += plain.steps[s]
	}
	var out []purposeCheck
	add := func(name string, v float64, want string, pass bool) {
		out = append(out, purposeCheck{name, v, want, pass})
	}
	switch b.name {
	case "fig7_cells":
		share := plain.steps["construct"] / cellSecs
		add("construct_share_of_cell", share, ">= 0.30", share >= 0.30)
	case "hpc_w_steer":
		share := (plain.steps["construct"] + plain.steps["generate"]) / cellSecs
		add("construct_plus_generate_share_of_run", share, "<= 0.02", share <= 0.02)
		rep := a.prof.byLayer("step", "replay")
		fc := float64(rep.ns["flash"]+rep.ns["core"]) / float64(rep.total)
		add("flash_plus_core_share_of_replay", fc, ">= 0.30", fc >= 0.30)
	case "hpc_r_rebuild":
		res := plain.res[0]
		tr := traces[0]
		span := tr[len(tr)-1].Timestamp
		cover := float64(min(res.RebuildDuration, span)) / float64(span)
		add("rebuild_window_share_of_trace", cover, ">= 0.95", cover >= 0.95)
		d := m["raid.degraded_reads_per_req"].Value
		add("raid.degraded_reads_per_req", d, "> 0", d > 0)
	}
	return out
}

// printTraced prints the per-layer metrics' context: model statistics and
// purpose checks. The metrics themselves are printed by finish.
func printTraced(r *result) {
	for _, c := range r.Cells {
		for _, k := range []string{"p50_ms", "p99_ms", "p999_ms", "gc_episodes", "erases", "write_amp", "redirect_ratio", "rebuild_s"} {
			fmt.Printf("model.%-14s %-40s %14.6g\n", k, c.Name, r.Model[c.Name][k])
		}
	}
	for _, c := range r.Checks {
		verdict := "pass"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Printf("purpose %-40s %10.4f (want %s) %s\n", c.Name, c.Value, c.Want, verdict)
	}
}
