package harness

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gcsteering"
)

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.maxRequests() != 8000 {
		t.Fatalf("maxRequests = %d", o.maxRequests())
	}
	if o.workers() < 1 {
		t.Fatalf("workers = %d", o.workers())
	}
	if o.repeats() != 1 {
		t.Fatalf("repeats = %d", o.repeats())
	}
	o = Options{MaxRequests: 42, Workers: 3, Repeats: 2}
	if o.maxRequests() != 42 || o.workers() != 3 || o.repeats() != 2 {
		t.Fatal("explicit options ignored")
	}
}

func TestBaseConfigValid(t *testing.T) {
	if err := BaseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 5}
	if got := o.base().Seed; got != BaseConfig().Seed+5 {
		t.Fatalf("seed offset not applied: %d", got)
	}
	o.Base = func() gcsteering.Config {
		c := BaseConfig()
		c.Disks = 7
		return c
	}
	if o.base().Disks != 7 {
		t.Fatal("Base override ignored")
	}
}

func TestGridNormalizationAndRender(t *testing.T) {
	g := newGrid("t", []string{"w1", "w2"}, []string{"A", "B"})
	g.Mean[Cell{"w1", "A"}] = 10
	g.Mean[Cell{"w1", "B"}] = 5
	g.Mean[Cell{"w2", "A"}] = 20
	g.Mean[Cell{"w2", "B"}] = 40
	g.addAux("x", Cell{"w1", "A"}, 1)

	norm := g.Normalized("A")
	if norm[Cell{"w1", "B"}] != 0.5 || norm[Cell{"w2", "B"}] != 2 {
		t.Fatalf("normalized: %+v", norm)
	}
	gm := g.GeoMeanNormalized("A")
	if gm["A"] != 1 {
		t.Fatalf("geomean of base = %v", gm["A"])
	}
	if got := gm["B"]; got < 0.99 || got > 1.01 { // sqrt(0.5*2) == 1
		t.Fatalf("geomean B = %v", got)
	}
	out := g.Render("A")
	for _, want := range []string{"== t ==", "normalized to A", "w1", "B", "geometric mean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// syntheticCell is a grid cell whose run derives its metrics from the
// config instead of replaying, so pipeline tests pay only for generating
// a tiny trace.
func syntheticCell(c Cell, report func(cfg gcsteering.Config) []metric) gridCell {
	return gridCell{
		cell:    c,
		cfg:     tinyOptions().Base(),
		profile: "hm_0",
		run: func(cfg gcsteering.Config, _ gcsteering.Trace) ([]metric, error) {
			return report(cfg), nil
		},
	}
}

func TestRunCellsParallelAndErrors(t *testing.T) {
	n := 20
	g := newGrid("t", []string{"w"}, nil)
	var cells []gridCell
	for i := 0; i < n; i++ {
		cells = append(cells, syntheticCell(Cell{"w", fmt.Sprint(i)}, func(gcsteering.Config) []metric {
			return []metric{{meanMetric, float64(i), asIs}}
		}))
	}
	if _, err := runCells(g, cells, Options{MaxRequests: 10, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if len(g.Mean) != n {
		t.Fatalf("recorded %d cells, want %d", len(g.Mean), n)
	}
	for i := 0; i < n; i++ {
		if got := g.Mean[Cell{"w", fmt.Sprint(i)}]; got != float64(i) {
			t.Fatalf("cell %d recorded %v", i, got)
		}
	}
}

func TestRunCellsPropagatesError(t *testing.T) {
	boom := gridCell{
		cell:    Cell{"w", "boom"},
		cfg:     tinyOptions().Base(),
		profile: "hm_0",
		run: func(gcsteering.Config, gcsteering.Trace) ([]metric, error) {
			return nil, errBoom{}
		},
	}
	unknown := boom
	unknown.cell, unknown.profile, unknown.run = Cell{"w", "unknown"}, "nope", nil
	for _, c := range []gridCell{boom, unknown} {
		g, err := runCells(newGrid("t", []string{"w"}, nil), []gridCell{c}, Options{MaxRequests: 10, Workers: 2})
		if err == nil || g != nil {
			t.Fatalf("%v: error swallowed (grid %v)", c.cell, g)
		}
		if !strings.Contains(err.Error(), c.cell.Variant) {
			t.Fatalf("error %q does not name the cell", err)
		}
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

// TestRunCellsAveragesRepeats pins the pipeline's averaging: each metric is
// averaged in the unit Results reports it in over the repeats that report
// it, the seed shifts by 1000 per repeat, and a metric a cell never
// reports stays absent from the grid.
func TestRunCellsAveragesRepeats(t *testing.T) {
	a, b := Cell{"w", "a"}, Cell{"w", "b"}
	cells := []gridCell{
		syntheticCell(a, func(cfg gcsteering.Config) []metric {
			ms := []metric{
				{meanMetric, float64(cfg.Seed) * 1000, nsToUs},
				{"ratio (%)", float64(cfg.Seed) / 4, toPercent},
			}
			if cfg.Seed > 1000 {
				ms = append(ms, metric{"second repeat only", 7, asIs})
			}
			return ms
		}),
		syntheticCell(b, func(cfg gcsteering.Config) []metric {
			return []metric{{meanMetric, 3000, nsToUs}}
		}),
	}
	g := newGrid("t", []string{"w"}, []string{"a", "b"})
	if _, err := runCells(g, cells, Options{MaxRequests: 10, Workers: 2, Repeats: 2}); err != nil {
		t.Fatal(err)
	}
	seed := float64(tinyOptions().Base().Seed)
	if got, want := g.Mean[a], seed+500; got != want {
		t.Fatalf("mean of seeds %v and %v = %v µs, want %v", seed, seed+1000, got, want)
	}
	if got, want := g.Aux["ratio (%)"][a], 100*(seed+500)/4; got != want {
		t.Fatalf("ratio = %v, want %v", got, want)
	}
	if got := g.Aux["second repeat only"][a]; got != 7 {
		t.Fatalf("metric reported by one repeat averaged to %v, want 7", got)
	}
	if g.Mean[b] != 3 {
		t.Fatalf("cell b mean = %v, want 3", g.Mean[b])
	}
	if _, ok := g.Aux["ratio (%)"][b]; ok {
		t.Fatal("metric cell b never reported is present")
	}
}

// tinyOptions shrinks everything so experiment tests run in seconds.
func tinyOptions() Options {
	return Options{
		MaxRequests: 1200,
		Workers:     4,
		Base: func() gcsteering.Config {
			cfg := BaseConfig()
			cfg.Flash.Blocks = 128
			cfg.Flash.PagesPerBlock = 64
			cfg.Flash.OverProvision = 0.2
			cfg.GCLowWater = 4
			cfg.GCHighWater = 10
			return cfg
		},
	}
}

func TestTable1RunsAndMatchesTargets(t *testing.T) {
	out, err := Table1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"HPC_W", "Fin1", "prxy_0", "wdev_0"} {
		if !strings.Contains(out, w) {
			t.Fatalf("Table1 missing %s:\n%s", w, out)
		}
	}
}

func TestFig2Runs(t *testing.T) {
	out, err := Fig2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reads→RI") || !strings.Contains(out, "average:") {
		t.Fatalf("Fig2 output malformed:\n%s", out)
	}
}

func TestFig7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	o := tinyOptions()
	o.MaxRequests = 2500
	g, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 8 || len(g.Variants) != 3 {
		t.Fatalf("grid shape %dx%d", len(g.Workloads), len(g.Variants))
	}
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			if g.Mean[Cell{w, v}] <= 0 {
				t.Fatalf("missing cell %s/%s", w, v)
			}
		}
	}
	// Headline shape: GC-Steering's mean response time is below LGC's on
	// geometric mean across the eight workloads.
	gm := g.GeoMeanNormalized("LGC")
	if gm["GC-Steering"] >= 1 {
		t.Fatalf("GC-Steering geomean %.3f, want < 1 (beats LGC)", gm["GC-Steering"])
	}
	// Fig 7b shape: GGC performs far more GC episodes; steering roughly
	// matches LGC (it never changes when GC happens).
	counts := g.Aux["GC count (episodes)"]
	var lgc, ggc, steer float64
	for _, w := range g.Workloads {
		lgc += counts[Cell{w, "LGC"}]
		ggc += counts[Cell{w, "GGC"}]
		steer += counts[Cell{w, "GC-Steering"}]
	}
	if ggc < 1.5*lgc {
		t.Fatalf("GGC episodes %.0f vs LGC %.0f; expected a large inflation", ggc, lgc)
	}
	if steer > 1.5*lgc {
		t.Fatalf("steering episodes %.0f vs LGC %.0f; steering must not change GC counts much", steer, lgc)
	}
}

func TestFig8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := Fig8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Variants) != 2 {
		t.Fatal("variants")
	}
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			if g.Mean[Cell{w, v}] <= 0 {
				t.Fatalf("missing cell %s/%s", w, v)
			}
		}
	}
	// Fig 8 shape (EXPERIMENTS.md): more members mean more parallelism and
	// fewer writes, hence fewer GC episodes, per member, so GC-Steering's
	// response time drops. 0.776 at seed 0.
	if gm := g.GeoMeanNormalized("5 SSDs")["7 SSDs"]; gm >= 1 {
		t.Fatalf("7 SSDs geomean %.3f of 5 SSDs, want < 1 (7 SSDs decreases)", gm)
	}
}

func TestFig9Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := Fig9(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Variants) != 3 {
		t.Fatal("variants")
	}
}

func TestFig10Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := Fig10(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"Reserved", "Dedicated"} {
		if g.Mean[Cell{"Fin1", v}] <= 0 {
			t.Fatalf("missing %s", v)
		}
	}
}

func TestFig11Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	o := tinyOptions()
	g, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	norm := g.Aux["normalized to normal state"]
	if len(norm) == 0 {
		t.Fatal("no normalized cells")
	}
	dur := g.Aux["rebuild duration (s)"]
	for c, v := range dur {
		if v <= 0 {
			t.Fatalf("cell %v: rebuild did not complete", c)
		}
	}
}

func TestFaultsGridRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := Faults(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Variants) != 3 {
		t.Fatalf("variants = %v", g.Variants)
	}
	wov := g.Aux["window of vulnerability (s)"]
	deg := g.Aux["degraded p99 (µs)"]
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			c := Cell{w, v}
			if wov[c] <= 0 {
				t.Fatalf("cell %v: no vulnerability window measured", c)
			}
			if deg[c] <= 0 {
				t.Fatalf("cell %v: no degraded p99 measured", c)
			}
		}
	}
	// The headline reliability claim: GC-Steering's staging absorbs user
	// I/O off the survivors during reconstruction, so its vulnerability
	// window is the shortest on aggregate.
	var lgc, ggc, steer float64
	for _, w := range g.Workloads {
		lgc += wov[Cell{w, "LGC"}]
		ggc += wov[Cell{w, "GGC"}]
		steer += wov[Cell{w, "GC-Steering"}]
	}
	if steer >= lgc || steer >= ggc {
		t.Fatalf("GC-Steering WOV %.2fs not shortest (LGC %.2fs, GGC %.2fs)", steer, lgc, ggc)
	}
}

// TestFaultsRepeatsAverageSeeds pins -repeats on a grid whose cells size
// their fault plan from the trace: a Repeats: 2 cell is the mean of the
// two single-seed runs at the seed offsets the repeats use.
func TestFaultsRepeatsAverageSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	run := func(seed int64, repeats int) *Grid {
		o := tinyOptions()
		o.MaxRequests = 600
		o.Seed, o.Repeats = seed, repeats
		g, err := Faults(o)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	s0, s1, avg := run(0, 1), run(1000, 1), run(0, 2)
	metrics := map[string][3]map[Cell]float64{meanMetric: {s0.Mean, s1.Mean, avg.Mean}}
	for name := range avg.Aux {
		metrics[name] = [3]map[Cell]float64{s0.Aux[name], s1.Aux[name], avg.Aux[name]}
	}
	differ := false
	for name, m := range metrics {
		for _, w := range avg.Workloads {
			for _, v := range avg.Variants {
				c := Cell{w, v}
				want := (m[0][c] + m[1][c]) / 2
				if got := m[2][c]; math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Errorf("%s %v: repeats=2 gives %v, mean of the seeds is %v", name, c, got, want)
				}
				differ = differ || m[0][c] != m[1][c]
			}
		}
	}
	if !differ {
		t.Fatal("the two seeds agree on every metric; test proves nothing")
	}
}

func TestGridMarshalJSON(t *testing.T) {
	g := newGrid("t", []string{"w1"}, []string{"A", "B"})
	g.Mean[Cell{"w1", "A"}] = 10
	g.Mean[Cell{"w1", "B"}] = 5
	g.addAux("x", Cell{"w1", "A"}, 1.5)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Title     string                                   `json:"title"`
		Workloads []string                                 `json:"workloads"`
		Variants  []string                                 `json:"variants"`
		Metrics   map[string]map[string]map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "t" || len(back.Workloads) != 1 || len(back.Variants) != 2 {
		t.Fatalf("round trip lost shape: %+v", back)
	}
	if back.Metrics[meanMetric]["w1"]["A"] != 10 {
		t.Fatalf("primary metric lost: %+v", back.Metrics)
	}
	if back.Metrics["x"]["w1"]["A"] != 1.5 {
		t.Fatalf("aux metric lost: %+v", back.Metrics)
	}
	if _, ok := back.Metrics["x"]["w1"]["B"]; ok {
		t.Fatal("unset cell serialized")
	}
}

func TestRAID6Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := RAID6(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.Mean[Cell{"Fin1", "GC-Steering"}] <= 0 {
		t.Fatal("RAID6 grid incomplete")
	}
}

func TestScrubGridSelfHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	o := tinyOptions()
	o.MaxRequests = 2500
	g, err := Scrub(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 3 || len(g.Variants) != 4 {
		t.Fatalf("grid shape %dx%d", len(g.Workloads), len(g.Variants))
	}
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			if g.Mean[Cell{w, v}] <= 0 {
				t.Fatalf("missing cell %s/%s", w, v)
			}
		}
	}
	// The headline reliability claim: with the identical seeded defect plan,
	// a patrol scrub pass before the failure strictly reduces the UREs the
	// rebuild then encounters on the survivors.
	ures := g.Aux["rebuild UREs"]
	fixed := g.Aux["scrub pages fixed"]
	for _, w := range g.Workloads {
		if ures[Cell{w, "baseline"}] <= 0 {
			t.Fatalf("%s: baseline rebuild saw no UREs; nothing to reduce", w)
		}
		if ures[Cell{w, "scrub"}] >= ures[Cell{w, "baseline"}] {
			t.Fatalf("%s: scrub UREs %.0f not below baseline %.0f",
				w, ures[Cell{w, "scrub"}], ures[Cell{w, "baseline"}])
		}
		if fixed[Cell{w, "scrub"}] <= 0 {
			t.Fatalf("%s: scrub repaired no pages", w)
		}
	}
	// The performance claim: hedged reads cut the GC-phase read tail on at
	// least one workload.
	p99 := g.Aux["gc-phase read p99 (µs)"]
	hedged := g.Aux["hedged reads"]
	improved := 0
	for _, w := range g.Workloads {
		if hedged[Cell{w, "hedge"}] <= 0 {
			t.Fatalf("%s: no reads hedged", w)
		}
		if p99[Cell{w, "hedge"}] < p99[Cell{w, "baseline"}] {
			improved++
		}
	}
	if improved == 0 {
		t.Fatalf("hedging never improved gc-phase read p99: %v", p99)
	}
}

func TestScrubGridDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	serial := tinyOptions()
	serial.MaxRequests = 1200
	serial.Workers = 1
	fanned := serial
	fanned.Workers = 4

	gs, err := Scrub(serial)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := Scrub(fanned)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs.Mean, gf.Mean) {
		t.Errorf("primary metric differs across worker counts:\nserial: %v\nfanned: %v", gs.Mean, gf.Mean)
	}
	if !reflect.DeepEqual(gs.Aux, gf.Aux) {
		t.Errorf("aux metrics differ across worker counts")
	}
}
