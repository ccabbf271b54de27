package harness

import (
	"gcsteering"
)

// crashScenario is one row of the crash-consistency grid: a workload, the
// power-cut instant as a fraction of the request stream, and an optional
// fault plan so the cut can land mid-rebuild. The cut is anchored to an
// arrival (the cutFrac-th request's timestamp, nudged slightly later) so
// it lands inside a burst with stripe writes in flight — a wall-clock
// fraction would often fall into the traces' long quiet gaps.
type crashScenario struct {
	name     string
	workload string
	cutFrac  float64
	rebuild  bool
}

// crashScenarios are the three crash regimes:
//
//   - quiet: the cut lands early in a mixed workload, before garbage
//     collection ramps up — few stripe writes in flight.
//   - gc-storm: the cut lands deep inside a write-dominated trace with the
//     array's GC running hot, so the write pipeline (and the set of open
//     parity updates) is as busy as it gets.
//   - rebuild: a member fails first and the cut interrupts the
//     reconstruction — the remount comes back degraded, restarts the
//     rebuild from zero, and still owes the resync.
func crashScenarios() []crashScenario {
	return []crashScenario{
		{name: "quiet", workload: "hm_0", cutFrac: 0.20},
		{name: "gc-storm", workload: "HPC_W", cutFrac: 0.70},
		{name: "rebuild", workload: "Fin1", cutFrac: 0.25, rebuild: true},
	}
}

// CrashConsist runs the crash-consistency grid: three crash regimes ×
// {journal, no-journal} on the baseline LGC array (the steering staging
// region is volatile, so crash runs exercise the plain local-GC scheme).
// The journal column is the write-hole argument made quantitative: the
// same cuts, a resync scoped to the dirty stripes instead of the whole
// array, zero inconsistency left behind either way — but the unjournaled
// array serves during its full-array walk, the window the journal closes.
func CrashConsist(o Options) (*Grid, error) {
	scenarios := crashScenarios()
	variants := []variant{
		{"journal", func(c *gcsteering.Config) { c.IntentJournal = true }},
		{"no-journal", func(*gcsteering.Config) {}},
	}
	workloads := make([]string, len(scenarios))
	for i, sc := range scenarios {
		workloads[i] = sc.name
	}
	g := newGrid("Crash consistency: power loss mid-write, intent journal vs full-scrub remount",
		workloads, names(variants))

	var cells []gridCell
	for _, sc := range scenarios {
		for _, v := range variants {
			cfg := o.base()
			cfg.Scheme = gcsteering.SchemeLGC
			v.set(&cfg)
			if sc.rebuild {
				cfg.ReservedFrac = 0.30
			}
			cells = append(cells, gridCell{
				cell:    Cell{sc.name, v.name},
				cfg:     cfg,
				profile: sc.workload,
				prepare: sc.prepare,
				metrics: func(r *gcsteering.Results) []metric {
					cr := r.Crash
					return []metric{
						{"inconsistent stripes", float64(cr.InconsistentStripes), asIs},
						{"resync found", float64(cr.ResyncFound), asIs},
						{"dirty stripes (journal scope)", float64(cr.DirtyStripes), asIs},
						{"torn pages", float64(cr.TornPages), asIs},
						{"resync stripes walked", float64(cr.ResyncStripesWalked), asIs},
						{"resync time (ms)", cr.ResyncDuration.Seconds() * 1000, asIs},
						{"post-crash p99 (µs)", float64(r.Latency.P99), nsToUs},
						{"in-flight lost", float64(cr.InFlightLost), asIs},
					}
				},
			})
		}
	}
	return runCells(g, cells, o)
}

// prepare places the scenario's power cut and, for the rebuild regime,
// the member failure it interrupts.
func (sc crashScenario) prepare(cfg *gcsteering.Config, tr gcsteering.Trace) {
	dur := tr[len(tr)-1].Timestamp.Seconds()
	cut := tr[int(float64(len(tr)-1)*sc.cutFrac)].Timestamp
	cfg.PowerLossAtMs = cut.Seconds()*1000 + 0.2
	if !sc.rebuild {
		return
	}
	// Fail a member at the 10%-request arrival (so it precedes the cut)
	// with the rebuild paced to span roughly half the trace, so the cut
	// interrupts it mid-flight (the faults grid's sizing rule).
	failAt := tr[int(float64(len(tr)-1)*0.10)].Timestamp
	diskBytes := float64(cfg.Capacity()) / float64(cfg.Disks-1)
	cfg.Fault = gcsteering.FaultPlan{
		Failures:      []gcsteering.DiskFault{{Disk: 2, AtMs: failAt.Seconds() * 1000}},
		RepairDelayMs: 5,
		RebuildMBps:   diskBytes / 1e6 / (dur * 0.45),
		RebuildTarget: gcsteering.RebuildToSpare,
	}
}
