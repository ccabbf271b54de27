package harness

import (
	"gcsteering"
)

// Scrub runs the self-healing experiment grid: every cell replays the same
// trace over an array seeded with persistent latent sector errors and
// silent corruption, fails one member mid-trace, and rebuilds it. The
// variants toggle the two self-healing mechanisms against a common
// baseline:
//
//   - "scrub" adds a patrol scrub pass before the failure, repairing the
//     seeded defects in place — the UREs the rebuild then encounters on the
//     survivors must strictly shrink (the §III-D exposure argument).
//   - "hedge" races parity reconstruct-reads against direct reads whose
//     member is mid-GC, attacking the GC-phase read tail.
//
// End-to-end checksums are on everywhere so silent corruption is detected
// (and counted) identically across variants; UREPerPageRead stays zero so
// every URE comes from the deterministic seeded defect sets and the
// scrub/no-scrub comparison is exact, not statistical.
func Scrub(o Options) (*Grid, error) {
	scrub := func(c *gcsteering.Config) { c.ScrubMBps = 1 } // marks the variant; prepare sizes the cap
	hedge := func(c *gcsteering.Config) { c.HedgedReads = true }
	variants := []variant{
		{"baseline", func(*gcsteering.Config) {}},
		{"scrub", scrub},
		{"hedge", hedge},
		{"scrub+hedge", func(c *gcsteering.Config) { scrub(c); hedge(c) }},
	}
	cfg := o.base()
	// LGC keeps the read path free of steering so the hedge columns
	// isolate the hedged-read mechanism; checksums verify every read.
	cfg.Scheme = gcsteering.SchemeLGC
	cfg.Checksums = true
	return replayGrid(o, "Self-healing: seeded latent/corrupt pages, failure at 50% of the trace, patrol scrub and GC-hedged reads",
		[]string{"HPC_R", "Fin1", "hm_0"}, variants, gridCell{
			cfg: cfg,
			// Fail disk 2 at 50% of the trace; size the scrub cap so one
			// full patrol pass (all stripes on all members) lands inside
			// the first ~40%, and the rebuild cap so the reconstruction
			// spans roughly 40% of the trace.
			prepare: func(cfg *gcsteering.Config, tr gcsteering.Trace) {
				dur := tr[len(tr)-1].Timestamp.Seconds()
				diskBytes := float64(cfg.Capacity()) / float64(cfg.Disks-1)
				cfg.Fault = gcsteering.FaultPlan{
					Failures:        []gcsteering.DiskFault{{Disk: 2, AtMs: dur * 1000 * 0.50}},
					LatentPageRate:  3e-4,
					CorruptPageRate: 1e-4,
					RepairDelayMs:   50,
					RebuildMBps:     diskBytes / 1e6 / (dur * 0.40),
					RebuildTarget:   gcsteering.RebuildToSpare,
				}
				if cfg.ScrubMBps > 0 {
					arrayBytes := diskBytes * float64(cfg.Disks)
					cfg.ScrubMBps = arrayBytes / 1e6 / (dur * 0.35)
				}
			},
			metrics: func(r *gcsteering.Results) []metric {
				return []metric{
					{"rebuild UREs", float64(r.Fault.RebuildUREs), asIs},
					{"data loss events", float64(r.Fault.DataLossEvents), asIs},
					{"gc-phase read p99 (µs)", float64(r.Phases.GCRead.P99), nsToUs},
					{"hedged reads", float64(r.Integrity.HedgedReads), asIs},
					{"hedge recon wins", float64(r.Integrity.HedgeReconWins), asIs},
					{"checksum errors detected", float64(r.Integrity.ChecksumErrors), asIs},
					{"scrub units repaired", float64(r.Scrub.UnitsRepaired), asIs},
					{"scrub pages fixed", float64(r.Scrub.LatentPagesRepaired + r.Scrub.CorruptPagesRepaired), asIs},
				}
			},
		})
}
