package harness

import (
	"gcsteering"
)

// Faults runs the reliability experiment grid: each cell fails one member
// mid-trace under an active fault plan (latent sector errors included) and
// measures the window of vulnerability, the rebuild time and the
// degraded-mode response times per GC scheme. Every scheme rebuilds onto a
// dedicated spare; GC-Steering runs its recovery configuration of §III-D
// case ① — dedicated staging that absorbs the redirected user I/O during
// reconstruction, relieving the survivors the rebuild is reading — the
// mechanism behind its shorter window of vulnerability.
func Faults(o Options) (*Grid, error) {
	variants := []variant{
		schemeVariants[0],
		schemeVariants[1],
		{"GC-Steering", func(c *gcsteering.Config) {
			c.Scheme = gcsteering.SchemeSteering
			c.Staging = gcsteering.StagingDedicated
		}},
	}
	cfg := o.base()
	// As in Fig. 11, the reserved space must hold a failed member's
	// contents for the parallel workflow; every scheme gets the same
	// reservation so the array geometry is identical across variants.
	cfg.ReservedFrac = 0.30
	return replayGrid(o, "Reliability: failure at 10% of the trace, automatic rebuild, latent sector errors",
		fig8Workloads(), variants, gridCell{
			cfg: cfg,
			// Fail disk 2 at 10% of the trace and size the rebuild
			// bandwidth cap so an uncontended rebuild spans roughly half the
			// remaining trace: the cap never binds alone, so the measured
			// rebuild time reflects each scheme's device contention (GC
			// stalls on the survivor reads).
			prepare: func(cfg *gcsteering.Config, tr gcsteering.Trace) {
				dur := tr[len(tr)-1].Timestamp.Seconds()
				diskBytes := float64(cfg.Capacity()) / float64(cfg.Disks-1)
				cfg.Fault = gcsteering.FaultPlan{
					Failures:       []gcsteering.DiskFault{{Disk: 2, AtMs: dur * 1000 * 0.10}},
					UREPerPageRead: 5e-5,
					RepairDelayMs:  50,
					RebuildMBps:    diskBytes / 1e6 / (dur * 0.45),
					RebuildTarget:  gcsteering.RebuildToSpare,
				}
			},
			metrics: func(r *gcsteering.Results) []metric {
				f := r.Fault
				return []metric{
					{"window of vulnerability (s)", f.WindowOfVulnerability.Seconds(), asIs},
					{"rebuild time (s)", f.RebuildTime.Seconds(), asIs},
					{"degraded mean (µs)", f.DegradedLatency.Mean, nsToUs},
					{"degraded p99 (µs)", float64(f.DegradedLatency.P99), nsToUs},
					{"UREs", float64(f.UREs), asIs},
					{"data loss events", float64(f.DataLossEvents), asIs},
				}
			},
		})
}
