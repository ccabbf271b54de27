package main

import (
	"fmt"
	"runtime"

	"gcsteering"
	"gcsteering/internal/harness"
	"gcsteering/internal/workload"
)

// cell is one simulation: a configuration, the Table I profile it replays
// and how many requests are synthesized for it.
type cell struct {
	name    string
	profile string
	cfg     gcsteering.Config
	maxReq  int
	// rebuild replays with member rebuildDisk failed at t=0 and
	// reconstruction into the survivors' reserved space, as Fig. 11 does.
	rebuild bool
}

// rebuildDisk is the member Fig. 11 fails.
const rebuildDisk = 2

// fig7Requests is the per-cell request budget of the fig7_cells grid.
const fig7Requests = 1000

// bench is one workload of the benchmark.
type bench struct {
	name string
	// grid marks a workload whose timed unit is harness.Fig7 over all its
	// cells rather than one cell replayed through the System API.
	grid  bool
	cells func(seed int64) []cell
}

var benches = []bench{
	{
		// Long write-heavy replay on the paper's main setup: replay (flash
		// GC, core reclaim, the sim queue) dominates, construction is <1%.
		name: "hpc_w_steer",
		cells: func(seed int64) []cell {
			cfg := gcsteering.DefaultConfig()
			cfg.Seed += seed
			return []cell{{name: "HPC_W/GC-Steering", profile: "HPC_W", cfg: cfg, maxReq: 20000}}
		},
	},
	{
		// The Fig. 7 grid as gcsbench users run it: construction is paid
		// on every one of its 24 short cells, and it is the only workload
		// that runs GGC (sched) and the harness worker pool.
		name: "fig7_cells",
		grid: true,
		cells: func(seed int64) []cell {
			var out []cell
			for _, p := range gcsteering.Profiles() {
				for _, v := range fig7Variants {
					cfg := harness.BaseConfig()
					cfg.Seed += seed
					v.set(&cfg)
					out = append(out, cell{name: p.Name + "/" + v.name, profile: p.Name, cfg: cfg, maxReq: fig7Requests})
				}
			}
			return out
		},
	},
	{
		// Read-heavy replay during a Fig. 11 rebuild: degraded
		// reconstruct-reads, and steering in rebuilding mode.
		name: "hpc_r_rebuild",
		cells: func(seed int64) []cell {
			cfg := gcsteering.DefaultConfig()
			cfg.Seed += seed
			cfg.ReservedFrac = 0.30
			return []cell{{name: "HPC_R/GC-Steering(Reserved)/rebuild", profile: "HPC_R", cfg: cfg, maxReq: 20000, rebuild: true}}
		},
	},
}

// fig7Variants mirror the scheme settings harness.Fig7 applies per column.
var fig7Variants = []struct {
	name string
	set  func(*gcsteering.Config)
}{
	{"LGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeLGC }},
	{"GGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeGGC }},
	{"GC-Steering", func(c *gcsteering.Config) {
		c.Scheme = gcsteering.SchemeSteering
		c.Staging = gcsteering.StagingReserved
	}},
}

func benchByName(name string) (bench, bool) {
	for _, b := range benches {
		if b.name == name {
			return b, true
		}
	}
	return bench{}, false
}

// synthesize generates a cell's trace from its seed exactly as
// System.GenerateWorkload would for a system built from the cell's config.
func synthesize(c cell) (gcsteering.Trace, error) {
	p, ok := workload.ByName(c.profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", c.profile)
	}
	return workload.Generate(p, workload.Options{
		Capacity:    c.cfg.Capacity(),
		MaxRequests: c.maxReq,
		Seed:        c.cfg.Seed + 7,
	})
}

// rebuildBandwidthMBps scales the rebuild bandwidth so reconstructing one
// member spans the whole trace, as Fig. 11 does.
func rebuildBandwidthMBps(sys *gcsteering.System, disks int, tr gcsteering.Trace) float64 {
	dur := tr[len(tr)-1].Timestamp.Seconds()
	if dur < 1e-3 {
		dur = 1e-3
	}
	return float64(sys.Capacity()) / float64(disks-1) / 1e6 / dur
}

// settlement counts how often each request of a replay settled.
type settlement struct {
	times []uint8
	stray int // settlements with a sequence number outside the trace
}

func newSettlement(n int) *settlement { return &settlement{times: make([]uint8, n)} }

func (s *settlement) observe(seq int64, _ int64, _ bool) {
	if seq < 0 || seq >= int64(len(s.times)) {
		s.stray++
		return
	}
	if s.times[seq] < 255 {
		s.times[seq]++
	}
}

// notOnce is the number of requests that did not settle exactly once.
func (s *settlement) notOnce() int {
	n := s.stray
	for _, t := range s.times {
		if t != 1 {
			n++
		}
	}
	return n
}

// stepFunc runs one step of a cell. The traced run wraps steps in spans
// and profiler labels; plain runs call them directly.
type stepFunc func(step string, f func())

func direct(_ string, f func()) { f() }

// replayCell builds the cell's System and replays a trace through the
// public entry point the cell names, counting each request's settlements.
// A nil tr is synthesized after construction, in the order the harness
// uses (New, GenerateWorkload, Replay).
func replayCell(c cell, tr gcsteering.Trace, step stepFunc) (*gcsteering.System, *gcsteering.Results, *settlement, error) {
	var (
		sys *gcsteering.System
		res *gcsteering.Results
		err error
	)
	if step("construct", func() { sys, err = gcsteering.New(c.cfg) }); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", c.name, err)
	}
	if tr == nil {
		if step("generate", func() { tr, err = synthesize(c) }); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}
	st := newSettlement(len(tr))
	sys.ObserveRequests(st.observe)
	step("replay", func() {
		if c.rebuild {
			res, err = sys.ReplayDuringRebuild(tr, rebuildDisk, rebuildBandwidthMBps(sys, c.cfg.Disks, tr), gcsteering.RebuildToReserved)
		} else {
			res, err = sys.Replay(tr)
		}
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return sys, res, st, nil
}

// runGrid runs the Fig. 7 grid through the harness with one worker per CPU.
func runGrid(seed int64) (*harness.Grid, error) {
	return harness.Fig7(harness.Options{MaxRequests: fig7Requests, Workers: runtime.GOMAXPROCS(0), Seed: seed})
}
