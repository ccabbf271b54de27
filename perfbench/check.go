package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"

	"gcsteering"
	"gcsteering/internal/harness"
)

// modelInts lists the integer-valued simulated statistics of one run. The
// digest is taken over integers only, so floating-point contraction on
// another platform cannot change it. System.Events is deliberately left
// out: a change that fires fewer engine events for the same behaviour is
// still correct.
func modelInts(r *gcsteering.Results) []int64 {
	var v []int64
	sum := func(s gcsteering.LatencySummary) {
		v = append(v, int64(s.Count), s.Min, s.Max, s.P50, s.P90, s.P95, s.P99, s.P999)
	}
	sum(r.Latency)
	sum(r.ReadLatency)
	sum(r.WriteLatency)
	sum(r.Phases.Quiet)
	sum(r.Phases.GC)
	sum(r.Phases.GCRead)
	sum(r.Phases.Degraded)
	v = append(v, r.GCEpisodes, r.Erases, r.GGCForced, r.GCExtensions, r.ForcedEpisodes,
		int64(r.GCWallTime), int64(r.Duration), int64(r.RebuildDuration), int64(r.Wear.MaxErase))
	st := r.Steering
	v = append(v, st.RedirectedReads, st.RedirectedWrites, st.DirectReads, st.DirectWrites,
		st.GCPages, st.GCPagesRedirected, st.QuarantinePages, st.QuarantinePagesRedirected,
		st.Migrations, st.MigrationsSkipped, st.MigrationsShed, st.WriteAllocFallbacks,
		st.WriteAllocGated, st.ReclaimRuns, st.ReclaimedPages, st.ReclaimSkippedStale)
	for _, d := range r.Devices {
		v = append(v, int64(d.ID), d.GCEpisodes, d.GCExtensions, d.ForcedGCs, d.Erases,
			int64(d.GCWallTime), int64(d.MaxErase))
	}
	return v
}

func digestInts(v []int64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		for i := range b {
			b[i] = byte(uint64(x) >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func digest(r *gcsteering.Results) string { return digestInts(modelInts(r)) }

// gridPair is what harness.Fig7 exposes per cell as integers: GC episodes
// and P99 response time (ns). Every timed grid must agree on it with the
// cell replayed through the System API.
type gridPair struct{ gc, p99 int64 }

func pairOf(r *gcsteering.Results) gridPair { return gridPair{r.GCEpisodes, r.Latency.P99} }

// gridPairs extracts each cell's pair from a Fig. 7 grid, in cell order.
// A cell the grid lacks reads as -1 so it can never match.
func gridPairs(g *harness.Grid, cells []cell) []gridPair {
	out := make([]gridPair, len(cells))
	gcs, p99s := g.Aux["GC count (episodes)"], g.Aux["p99 response time (µs)"]
	for i, c := range cells {
		hc := harness.Cell{Workload: c.profile, Variant: c.name[len(c.profile)+1:]}
		gc, ok1 := gcs[hc]
		p99, ok2 := p99s[hc]
		if !ok1 || !ok2 {
			out[i] = gridPair{-1, -1}
			continue
		}
		out[i] = gridPair{int64(math.Round(gc)), int64(math.Round(p99 * 1e3))}
	}
	return out
}

// modelStats are the simulated statistics the traced run prints as model.*.
// They are checked through the digest and are never metrics to move.
func modelStats(r *gcsteering.Results) map[string]float64 {
	return map[string]float64{
		"p50_ms":         float64(r.Latency.P50) / 1e6,
		"p99_ms":         float64(r.Latency.P99) / 1e6,
		"p999_ms":        float64(r.Latency.P999) / 1e6,
		"gc_episodes":    float64(r.GCEpisodes),
		"erases":         float64(r.Erases),
		"write_amp":      r.WriteAmp,
		"redirect_ratio": r.RedirectRatio,
		"rebuild_s":      r.RebuildDuration.Seconds(),
	}
}

// goldens maps workload -> seed -> per-cell digests, recorded with the
// record subcommand from a commit whose simulated output is trusted.
type goldens map[string]map[string][]string

//go:embed goldens.json
var goldenJSON []byte

func loadGoldens() (goldens, error) {
	g := goldens{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("goldens.json: %w", err)
	}
	return g, nil
}

// lookup returns the recorded per-cell digests for (workload, seed), or nil.
func (g goldens) lookup(workload string, seed int64) []string {
	return g[workload][strconv.FormatInt(seed, 10)]
}

// cellVerdict is the outcome of checking one cell's replay.
type cellVerdict struct {
	name      string
	digest    string
	golden    string // "" when no golden is recorded for this seed
	requests  int
	notOnce   int // requests that did not settle exactly once
	digestBad bool
}

// failed is the number of the cell's requests that count as failed: all
// of them on a digest mismatch, else those not settled exactly once.
func (v cellVerdict) failed() int {
	if v.digestBad {
		return v.requests
	}
	return v.notOnce
}

// checker checks each replay of a workload's cells: against the cell's
// golden, or, when none is recorded, against the first replay of the same
// cell in this run. The first replay of each cell is recorded in the
// result; a later failing replay is reported as a problem.
type checker struct {
	r     *result
	cells []cell
	gold  []string
	refs  []string
}

func newChecker(r *result, cells []cell, gold []string) *checker {
	return &checker{r: r, cells: cells, gold: gold, refs: make([]string, len(cells))}
}

func (k *checker) check(i int, res *gcsteering.Results, st *settlement) cellVerdict {
	v := cellVerdict{name: k.cells[i].name, digest: digest(res), requests: len(st.times), notOnce: st.notOnce()}
	if k.gold != nil {
		v.golden = k.gold[i]
	}
	want := v.golden
	if want == "" {
		want = k.refs[i]
	}
	v.digestBad = want != "" && v.digest != want
	if k.refs[i] == "" {
		k.refs[i] = v.digest
		k.r.addCell(v)
	} else if v.failed() > 0 {
		k.r.problem("cell %s: digest %s, %d requests not settled exactly once", v.name, v.digest, v.notOnce)
	}
	return v
}

// recordGoldens computes every cell digest of the named workloads for each
// seed and merges them into the goldens file at path. An existing golden
// that disagrees is an error unless force is set: re-recording must not
// silently absorb a change in simulated output.
func recordGoldens(path string, names []string, seeds []int64, force bool) error {
	g := goldens{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	for _, name := range names {
		b, ok := benchByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		if g[name] == nil {
			g[name] = map[string][]string{}
		}
		for _, seed := range seeds {
			var ds []string
			for _, c := range b.cells(seed) {
				_, r, _, err := replayCell(c, nil, direct)
				if err != nil {
					return err
				}
				ds = append(ds, digest(r))
			}
			key := strconv.FormatInt(seed, 10)
			if old, ok := g[name][key]; ok && !force && !slices.Equal(old, ds) {
				return fmt.Errorf("%s seed %d: recorded goldens differ from this build's output (rerun with -force to replace them)", name, seed)
			}
			g[name][key] = ds
			fmt.Fprintf(os.Stderr, "recorded %s seed %d (%d cells)\n", name, seed, len(ds))
		}
	}
	return writeGoldens(path, g)
}

// writeGoldens writes one line per (workload, seed) so diffs stay readable.
func writeGoldens(path string, g goldens) error {
	var names []string
	for n := range g {
		names = append(names, n)
	}
	sort.Strings(names)
	out := []byte("{\n")
	for i, n := range names {
		var seeds []int64
		for k := range g[n] {
			s, err := strconv.ParseInt(k, 10, 64)
			if err != nil {
				return fmt.Errorf("goldens: seed key %q: %w", k, err)
			}
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		out = append(out, fmt.Sprintf("  %q: {\n", n)...)
		for j, s := range seeds {
			ds, _ := json.Marshal(g[n][strconv.FormatInt(s, 10)])
			out = append(out, fmt.Sprintf("    \"%d\": %s", s, ds)...)
			if j < len(seeds)-1 {
				out = append(out, ',')
			}
			out = append(out, '\n')
		}
		out = append(out, "  }"...)
		if i < len(names)-1 {
			out = append(out, ',')
		}
		out = append(out, '\n')
	}
	out = append(out, "}\n"...)
	return os.WriteFile(path, out, 0o644)
}
