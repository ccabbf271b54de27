package gcsteering

import (
	"bytes"
	"testing"
)

// crashTrace generates the shared write-heavy workload the crash tests
// replay (Fin1 is ~77% writes — plenty of stripe writes in flight at any
// mid-trace instant).
func crashTrace(t *testing.T, cfg Config, reqs int) Trace {
	t.Helper()
	tr, err := cfg.GenerateWorkload("Fin1", reqs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// crashSweepInstants are the power-cut instants (ms) the pinned sweeps
// use: spread across the trace so cuts land in different write mixes.
var crashSweepInstants = []float64{3, 7, 15, 31}

// TestPowerLossJournalOnSweep pins the tentpole guarantee: with the intent
// journal on, a power loss injected mid-stripe-write leaves zero
// inconsistent stripes after the mount-time resync, across a sweep of
// crash instants. Checksums stay on so any stripe the resync missed would
// surface as a post-crash checksum error.
func TestPowerLossJournalOnSweep(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.Checksums = true
	cfg.IntentJournal = true
	tr := crashTrace(t, cfg, 2000)
	sawDirty := false
	for _, at := range crashSweepInstants {
		c := cfg
		c.PowerLossAtMs = at
		res, err := replayConfig(c, tr)
		if err != nil {
			t.Fatalf("crash at %vms: %v", at, err)
		}
		cr := res.Crash
		if !cr.Enabled || !cr.Journaled {
			t.Fatalf("crash at %vms: stats not marked enabled/journaled: %+v", at, cr)
		}
		if cr.DirtyStripes > 0 {
			sawDirty = true
		}
		// The journal's write-ahead invariant: every inconsistent stripe
		// was in the dirty list, so the scoped resync found every one.
		if cr.ResyncFound != int64(cr.InconsistentStripes) {
			t.Fatalf("crash at %vms: resync found %d of %d inconsistent stripes",
				at, cr.ResyncFound, cr.InconsistentStripes)
		}
		// The resync walked only the dirty list, not the whole array.
		if cr.ResyncStripesWalked != int64(cr.DirtyStripes) {
			t.Fatalf("crash at %vms: walked %d stripes, dirty list had %d",
				at, cr.ResyncStripesWalked, cr.DirtyStripes)
		}
		// Zero inconsistency visible after resync: serving was gated on the
		// walk, so no post-crash read can hit a torn page.
		if res.Integrity.ChecksumErrors != 0 {
			t.Fatalf("crash at %vms: %d post-resync checksum errors (torn stripe survived resync)",
				at, res.Integrity.ChecksumErrors)
		}
		if cr.ServedDuringResync {
			t.Fatalf("crash at %vms: journal-on run served during resync", at)
		}
	}
	if !sawDirty {
		t.Fatal("no crash instant in the sweep landed mid-stripe-write; sweep proves nothing")
	}
}

// TestPowerLossJournalOffSweep pins the converse: without the journal the
// remount has no scope information — only the full-array walk finds the
// (nonzero, somewhere in the sweep) inconsistent stripes, and the array
// serves while the walk runs.
func TestPowerLossJournalOffSweep(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.IntentJournal = false
	tr := crashTrace(t, cfg, 2000)
	lay := int64(0)
	sawInconsistent := false
	for _, at := range crashSweepInstants {
		c := cfg
		c.PowerLossAtMs = at
		res, err := replayConfig(c, tr)
		if err != nil {
			t.Fatalf("crash at %vms: %v", at, err)
		}
		cr := res.Crash
		if cr.Journaled {
			t.Fatalf("crash at %vms: journal-off run marked journaled", at)
		}
		if !cr.ServedDuringResync {
			t.Fatalf("crash at %vms: journal-off run gated serving on the full walk", at)
		}
		if lay == 0 {
			lay = cr.ResyncStripesWalked
		}
		// The walk covers every stripe of the array — the full-scrub cost
		// the journal would have avoided — and still finds everything.
		if cr.ResyncStripesWalked != lay || cr.ResyncStripesWalked <= int64(cr.DirtyStripes) {
			t.Fatalf("crash at %vms: walked %d stripes (dirty %d, first sweep walked %d); want a full-array walk",
				at, cr.ResyncStripesWalked, cr.DirtyStripes, lay)
		}
		if cr.ResyncFound != int64(cr.InconsistentStripes) {
			t.Fatalf("crash at %vms: full walk found %d of %d inconsistent stripes",
				at, cr.ResyncFound, cr.InconsistentStripes)
		}
		if cr.InconsistentStripes > 0 {
			sawInconsistent = true
		}
	}
	if !sawInconsistent {
		t.Fatal("no crash instant left an inconsistent stripe; the write hole never opened")
	}
}

// TestPowerLossDeterministic pins reproducibility: the same crash config
// yields byte-identical traces and identical recovery accounting.
func TestPowerLossDeterministic(t *testing.T) {
	run := func() (CrashStats, string) {
		cfg := smallConfig(SchemeLGC)
		cfg.IntentJournal = true
		cfg.PowerLossAtMs = 9
		var buf bytes.Buffer
		cfg.Trace = NewTracer(&buf)
		tr := crashTrace(t, cfg, 1200)
		res, err := replayConfig(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return res.Crash, buf.String()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 {
		t.Fatalf("crash stats diverged:\n%+v\n%+v", c1, c2)
	}
	if t1 != t2 {
		t.Fatal("crash-run traces diverged between identical runs")
	}
	if c1.TornPages == 0 && c1.DirtyStripes == 0 {
		t.Fatal("crash at 9ms interrupted nothing; determinism run proves nothing")
	}
}

// TestPowerLossKnobsInert pins the zero-cost guarantee: with PowerLossAtMs
// unset, IntentJournal changes nothing — the trace is byte identical to a
// run without it.
func TestPowerLossKnobsInert(t *testing.T) {
	run := func(journal bool) string {
		cfg := smallConfig(SchemeLGC)
		cfg.IntentJournal = journal
		var buf bytes.Buffer
		cfg.Trace = NewTracer(&buf)
		tr := crashTrace(t, cfg, 800)
		if _, err := replayConfig(cfg, tr); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run(true) != run(false) {
		t.Fatal("IntentJournal changed the trace without a power loss")
	}
}

// TestPowerLossDuringRebuild pins the crash-during-rebuild paths. A member
// that fails before the cut and is still rebuilding comes back degraded:
// the rebuild restarts from zero and recovery still closes every torn
// stripe. A member whose rebuild completed before the cut stays repaired:
// the remount neither re-fails it nor rebuilds it again.
func TestPowerLossDuringRebuild(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cutMs    float64
		plan     FaultPlan
		failures int64 // post-crash Fault.Failures and Fault.Rebuilds
	}{
		{
			name:  "mid-rebuild",
			cutMs: 12,
			plan: FaultPlan{
				Failures:      []DiskFault{{Disk: 1, AtMs: 4}},
				RepairDelayMs: 1,
				RebuildMBps:   50,
				RebuildTarget: RebuildToSpare,
			},
			failures: 1,
		},
		{
			// The rebuild completes at about 1173 ms, just before the cut.
			name:  "repaired-before-cut",
			cutMs: 1175.56,
			plan: FaultPlan{
				Failures:      []DiskFault{{Disk: 1, AtMs: 1}},
				RebuildMBps:   2000,
				RebuildTarget: RebuildToSpare,
			},
			failures: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(SchemeLGC)
			cfg.Checksums = true
			cfg.IntentJournal = true
			cfg.PowerLossAtMs = tc.cutMs
			cfg.Fault = tc.plan
			tr := crashTrace(t, cfg, 2000)
			res, err := replayConfig(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Crash.Enabled {
				t.Fatal("crash stats missing")
			}
			f := res.Fault
			if f.Failures != tc.failures || f.Rebuilds != tc.failures {
				t.Fatalf("post-crash fault stats = %+v, want %d failure(s) and rebuild(s)", f, tc.failures)
			}
			if tc.failures == 0 && f.WindowOfVulnerability != 0 {
				t.Fatalf("repaired member left a %v window of vulnerability after the remount", f.WindowOfVulnerability)
			}
			if res.Crash.ResyncFound != int64(res.Crash.InconsistentStripes) {
				t.Fatalf("resync found %d of %d inconsistent stripes",
					res.Crash.ResyncFound, res.Crash.InconsistentStripes)
			}
			if res.Integrity.ChecksumErrors != 0 {
				t.Fatalf("%d post-resync checksum errors", res.Integrity.ChecksumErrors)
			}
		})
	}
}

// TestPowerLossObserveRequests pins the ObserveRequests contract across
// the remount: every request is reported under its trace index, none
// settles twice, and exactly the requests lost in flight at the cut never
// settle.
func TestPowerLossObserveRequests(t *testing.T) {
	for _, journal := range []bool{true, false} {
		cfg := smallConfig(SchemeLGC)
		cfg.IntentJournal = journal
		cfg.PowerLossAtMs = 15
		tr := crashTrace(t, cfg, 1500)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		settled := make([]int, len(tr))
		sys.ObserveRequests(func(seq int64, latNs int64, rejected bool) {
			if seq < 0 || seq >= int64(len(tr)) {
				t.Fatalf("journal=%v: seq %d outside the %d-record trace", journal, seq, len(tr))
			}
			settled[seq]++
		})
		res, err := sys.Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		unsettled := 0
		for i, n := range settled {
			switch {
			case n > 1:
				t.Fatalf("journal=%v: trace index %d settled %d times", journal, i, n)
			case n == 0:
				unsettled++
			}
		}
		if res.Crash.InFlightLost == 0 {
			t.Fatalf("journal=%v: cut at %vms lost nothing in flight; test proves nothing", journal, cfg.PowerLossAtMs)
		}
		if unsettled != res.Crash.InFlightLost {
			t.Fatalf("journal=%v: %d trace indices never settled, %d lost in flight", journal, unsettled, res.Crash.InFlightLost)
		}
	}
}
