package gcsteering

import (
	"math"
	"strings"
	"testing"

	"gcsteering/internal/core"
)

// Helpers bridging the white-box tests to internal/core types.
func corePageKey(disk, page int32) core.PageKey {
	return core.PageKey{Disk: disk, Page: page}
}

func coreStageLoc(dev, page int32) core.StageLoc {
	return core.StageLoc{Dev0: dev, Page0: page, Dev1: core.NoMirror}
}

// smallConfig shrinks the flash geometry so facade tests run fast.
func smallConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Flash.Blocks = 128
	cfg.Flash.PagesPerBlock = 64
	cfg.Flash.OverProvision = 0.20
	cfg.GCLowWater = 4
	cfg.GCHighWater = 10
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Disks = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("1 disk accepted")
	}
	bad = cfg
	bad.StripeUnitKB = 3 // not a page multiple
	if err := bad.Validate(); err == nil {
		t.Fatal("non-page stripe unit accepted")
	}
	bad = cfg
	bad.ReservedFrac = 0.9
	if err := bad.Validate(); err == nil {
		t.Fatal("huge reservation accepted")
	}
	bad = cfg
	bad.Scheme = SchemeSteering
	bad.Staging = StagingReserved
	bad.ReservedFrac = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("reserved staging without reservation accepted")
	}
}

// TestConfigRejectsNaNFractions pins that a NaN fraction is a config
// error naming the field: NaN fails every ordered comparison, so a range
// check written as "v < lo || v > hi" lets it through to sizing code.
func TestConfigRejectsNaNFractions(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(c *Config)
	}{
		{"ReservedFrac", func(c *Config) { c.ReservedFrac = math.NaN() }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := smallConfig(SchemeSteering)
			tc.set(&cfg)
			if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("New: err = %v, want a %s error", err, tc.field)
			}
		})
	}
}

func TestSchemeAndStagingStrings(t *testing.T) {
	if SchemeLGC.String() != "LGC" || SchemeGGC.String() != "GGC" || SchemeSteering.String() != "GC-Steering" {
		t.Fatal("scheme names")
	}
	if StagingReserved.String() != "Reserved" || StagingDedicated.String() != "Dedicated" {
		t.Fatal("staging names")
	}
}

func TestProfilesExposed(t *testing.T) {
	if len(Profiles()) != 8 {
		t.Fatalf("%d profiles", len(Profiles()))
	}
	if _, ok := ProfileByName("HPC_W"); !ok {
		t.Fatal("HPC_W missing")
	}
}

func TestReplayAllSchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeLGC, SchemeGGC, SchemeSteering} {
		cfg := smallConfig(scheme)
		sys, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		tr, err := cfg.GenerateWorkload("Fin1", 3000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency.Count != 3000 {
			t.Fatalf("%v: %d responses, want 3000", scheme, res.Latency.Count)
		}
		if res.Latency.Mean <= 0 {
			t.Fatalf("%v: zero mean latency", scheme)
		}
		if res.ReadLatency.Count+res.WriteLatency.Count != res.Latency.Count {
			t.Fatalf("%v: split latencies do not add up", scheme)
		}
		if scheme == SchemeSteering && res.Steering.RedirectedWrites == 0 && res.GCEpisodes > 0 {
			t.Fatalf("%v: GC happened but nothing was steered", scheme)
		}
		if res.String() == "" {
			t.Fatal("empty report")
		}
	}
}

func TestConfigGenerateWorkload(t *testing.T) {
	for _, tc := range []struct {
		name    string
		profile string
		set     func(*Config)
		wantErr string // "" = the config's own Validate error
	}{
		{"unknown-profile", "nope", nil, `unknown profile "nope"`},
		{"invalid-config", "Fin1", func(c *Config) { c.Flash.PageSize = 0 }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(SchemeLGC)
			if tc.set != nil {
				tc.set(&cfg)
			}
			want := tc.wantErr
			if want == "" {
				verr := cfg.Validate()
				if verr == nil {
					t.Fatal("config meant to be invalid passes Validate")
				}
				want = verr.Error()
			}
			tr, err := cfg.GenerateWorkload(tc.profile, 10)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("GenerateWorkload = %d records, err %v; want error containing %q", len(tr), err, want)
			}
		})
	}
}

// TestSettlesExactlyOnce pins the completion contract submit relies on:
// on every replay path without a power cut, the array fires a request's
// completion exactly once, so every trace index settles exactly once.
// Nothing in submit masks a second completion, so a second call to
// submit's done shows here as a count of 2. A leaf sub-op completing
// twice below a request barrier shows as the barrier's panic on its call
// past n. Each row also checks that its path was exercised.
// TestPowerLossObserveRequests covers the power cut.
func TestSettlesExactlyOnce(t *testing.T) {
	replay := func(sys *System, tr Trace) (*Results, error) { return sys.Replay(tr) }
	for _, tc := range []struct {
		name      string
		scheme    Scheme
		profile   string
		configure func(*Config)
		run       func(*System, Trace) (*Results, error)
		exercised func(*Results) bool
	}{
		{name: "LGC", scheme: SchemeLGC},
		{name: "GGC", scheme: SchemeGGC},
		{name: "GC-Steering", scheme: SchemeSteering},
		{
			name: "retries", scheme: SchemeLGC, profile: "HPC_R",
			configure: func(c *Config) {
				c.MaxRetries = 2
				c.Fault.TransientReadErrorRate = 0.01
			},
			exercised: func(r *Results) bool { return r.Robust.Retries > 0 && r.Robust.RetriesExhausted > 0 },
		},
		{
			name: "admission", scheme: SchemeSteering,
			configure: func(c *Config) { c.QueueLimit = 4 },
			exercised: func(r *Results) bool { return r.Robust.Rejected > 0 },
		},
		{
			name: "hedged", scheme: SchemeLGC,
			configure: func(c *Config) { c.HedgedReads = true },
			exercised: func(r *Results) bool { return r.Integrity.HedgedReads > 0 },
		},
		{
			name: "failure-rebuild", scheme: SchemeSteering,
			configure: func(c *Config) {
				c.Fault = FaultPlan{
					Failures:      []DiskFault{{Disk: 1, AtMs: 4}},
					RepairDelayMs: 1,
					RebuildMBps:   50,
				}
			},
			exercised: func(r *Results) bool { return r.Fault.Failures == 1 && r.Fault.Rebuilds == 1 },
		},
		{
			name: "ReplayDuringRebuild", scheme: SchemeSteering, profile: "hm_0",
			run: func(sys *System, tr Trace) (*Results, error) {
				return sys.ReplayDuringRebuild(tr, 2, 10, RebuildToReserved)
			},
			exercised: func(r *Results) bool { return r.RebuildDuration > 0 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.scheme)
			if tc.configure != nil {
				tc.configure(&cfg)
			}
			profile, run := tc.profile, tc.run
			if profile == "" {
				profile = "HPC_W"
			}
			if run == nil {
				run = replay
			}
			tr, err := cfg.GenerateWorkload(profile, 3000)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			settled := make([]int, len(tr))
			sys.ObserveRequests(func(seq int64, _ int64, _ bool) {
				if seq < 0 || seq >= int64(len(tr)) {
					t.Fatalf("seq %d outside the %d-record trace", seq, len(tr))
				}
				settled[seq]++
			})
			res, err := run(sys, tr)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range settled {
				if n != 1 {
					t.Fatalf("trace index %d settled %d times", i, n)
				}
			}
			if tc.exercised != nil && !tc.exercised(res) {
				t.Fatal("the row's path was not exercised; the test proves nothing")
			}
		})
	}
}

func TestReplayRejectsEmptyAndInvalid(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, sys *System, tr Trace) error
	}{
		{"empty trace", func(_ *testing.T, sys *System, _ Trace) error {
			_, err := sys.Replay(nil)
			return err
		}},
		{"unordered trace", func(_ *testing.T, sys *System, _ Trace) error {
			_, err := sys.Replay(Trace{{Timestamp: 5, Size: 4096}, {Timestamp: 1, Size: 4096}})
			return err
		}},
		{"second replay", func(t *testing.T, sys *System, tr Trace) error {
			if _, err := sys.Replay(tr); err != nil {
				t.Fatal(err)
			}
			_, err := sys.Replay(tr)
			return err
		}},
		{"replay after ReplayDuringRebuild", func(t *testing.T, sys *System, tr Trace) error {
			if _, err := sys.ReplayDuringRebuild(tr, 2, 10, RebuildToSpare); err != nil {
				t.Fatal(err)
			}
			_, err := sys.Replay(tr)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(SchemeLGC)
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := cfg.GenerateWorkload("hm_0", 100)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(t, sys, tr); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

func TestReplayDuringRebuildBothTargets(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		target RebuildTarget
	}{
		{SchemeLGC, RebuildToSpare},
		{SchemeSteering, RebuildToReserved},
		{SchemeSteering, RebuildToSpare},
	} {
		cfg := smallConfig(tc.scheme)
		if tc.scheme == SchemeSteering && tc.target == RebuildToSpare {
			cfg.Staging = StagingDedicated
		}
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := cfg.GenerateWorkload("hm_0", 2000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.ReplayDuringRebuild(tr, 2, 10, tc.target)
		if err != nil {
			t.Fatalf("%v/%v: %v", tc.scheme, tc.target, err)
		}
		// Only requests arriving during the reconstruction window are
		// measured (Fig. 11 semantics), so the count is bounded by, and
		// usually below, the trace length.
		if res.Latency.Count == 0 || res.Latency.Count > 2000 {
			t.Fatalf("%v/%v: %d responses", tc.scheme, tc.target, res.Latency.Count)
		}
		if res.RebuildDuration <= 0 {
			t.Fatalf("%v/%v: rebuild never completed", tc.scheme, tc.target)
		}
	}
}

func TestReplayDuringRebuildValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(c *Config)
		run  func(t *testing.T, sys *System, tr Trace) error
	}{
		{name: "bad disk id", run: func(t *testing.T, sys *System, tr Trace) error {
			_, err := sys.ReplayDuringRebuild(tr, 99, 10, RebuildToSpare)
			return err
		}},
		{name: "empty trace", run: func(_ *testing.T, sys *System, _ Trace) error {
			_, err := sys.ReplayDuringRebuild(nil, 0, 10, RebuildToSpare)
			return err
		}},
		{
			name: "enabled fault plan",
			set:  func(c *Config) { c.Fault.UREPerPageRead = 1e-4 },
			run: func(t *testing.T, sys *System, tr Trace) error {
				_, err := sys.ReplayDuringRebuild(tr, 2, 10, RebuildToSpare)
				return err
			},
		},
		{
			name: "power cut",
			set:  func(c *Config) { c.PowerLossAtMs = 5 },
			run: func(t *testing.T, sys *System, tr Trace) error {
				_, err := sys.ReplayDuringRebuild(tr, 2, 10, RebuildToSpare)
				return err
			},
		},
		{name: "second replay", run: func(t *testing.T, sys *System, tr Trace) error {
			if _, err := sys.ReplayDuringRebuild(tr, 2, 10, RebuildToSpare); err != nil {
				t.Fatal(err)
			}
			_, err := sys.ReplayDuringRebuild(tr, 2, 10, RebuildToSpare)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(SchemeLGC)
			if tc.set != nil {
				tc.set(&cfg)
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := cfg.GenerateWorkload("hm_0", 100)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(t, sys, tr); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestReplayDuringRebuildBusyWindow pins the busy-window convention shared
// with fault-plan failures: the scripted rebuild's window belongs to the
// failed member.
func TestReplayDuringRebuildBusyWindow(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.RecordBusy = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := cfg.GenerateWorkload("hm_0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ReplayDuringRebuild(tr, 2, 10, RebuildToSpare)
	if err != nil {
		t.Fatal(err)
	}
	var windows []BusyInterval
	for _, w := range res.Busy {
		if w.Kind == BusyRebuild {
			windows = append(windows, w)
		}
	}
	if len(windows) != 1 || windows[0].Dev != 2 {
		t.Fatalf("rebuild busy windows = %+v, want one on disk 2", windows)
	}
	if w := windows[0]; w.Start != 0 || w.End != res.RebuildDuration {
		t.Fatalf("rebuild window [%v, %v], want [0, %v]", w.Start, w.End, res.RebuildDuration)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		cfg := smallConfig(SchemeSteering)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := cfg.GenerateWorkload("mds_0", 2000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
}

// TestReclaimFirstBeforeParallelRebuild exercises the paper's §III-D case
// ②: when the staging space serves as the replacement, previously
// redirected write data is reclaimed before reconstruction begins.
func TestReclaimFirstBeforeParallelRebuild(t *testing.T) {
	sys, err := New(smallConfig(SchemeSteering))
	if err != nil {
		t.Fatal(err)
	}
	// Seed the staging space with redirected write data: force GC on a
	// member and write through the array while it collects.
	sys.devs[1].ForceGC(sys.eng.Now())
	sys.measuring = true
	for p := 0; p < 8; p++ {
		sys.submit(sys.eng.Now(), Record{Offset: int64(p) * 4096, Size: 4096, Write: true})
	}
	sys.eng.RunFor(2_000_000) // 2ms: writes land, GC still in flight
	if sys.steer.DTable().WriteLen() == 0 {
		t.Skip("no writes were staged in this layout; nothing to exercise")
	}
	tr, err := smallConfig(SchemeSteering).GenerateWorkload("wdev_0", 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ReplayDuringRebuild(tr, 2, 20, RebuildToReserved)
	if err != nil {
		t.Fatal(err)
	}
	if res.RebuildDuration <= 0 {
		t.Fatal("rebuild never completed")
	}
	// After the run everything must be reclaimed (drain on completion).
	if got := sys.steer.DTable().WriteLen(); got != 0 {
		t.Fatalf("%d write entries left after rebuild + drain", got)
	}
}

// TestFailedHomeEntriesKeptDuringRebuild: write entries homed on the failed
// member must survive the rebuild-time drains (their home is gone) and
// still be served from staging.
func TestFailedHomeNotReclaimedWhileDown(t *testing.T) {
	sys, err := New(smallConfig(SchemeSteering))
	if err != nil {
		t.Fatal(err)
	}
	sys.steer.SetFailedHome(3)
	// Draining() must ignore entries homed on member 3.
	sys.steer.DTable().Put(
		corePageKey(3, 10),
		coreStageLoc(0, 99),
		true,
	)
	if sys.steer.Draining() {
		t.Fatal("entries on the failed home counted as reclaimable")
	}
	sys.steer.SetFailedHome(-1)
	if !sys.steer.Draining() {
		t.Fatal("entry not reclaimable after the member returned")
	}
}
