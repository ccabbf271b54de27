package gcsteering

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenPath is one replay path whose JSONL event trace is pinned by
// digest: set shapes the config, replay builds a System from it and runs
// the trace through the path.
type goldenPath struct {
	name   string
	scheme Scheme
	set    func(c *Config)
	replay func(cfg Config, tr Trace) (*Results, error)
	digest string
}

// goldenFaults is the fault plan of the fault-injected golden paths: one
// member lost mid-trace and rebuilt automatically, plus latent sector
// errors on the reads.
func goldenFaults(target RebuildTarget) FaultPlan {
	return FaultPlan{
		Failures:       []DiskFault{{Disk: 2, AtMs: 100}},
		UREPerPageRead: 5e-5,
		RepairDelayMs:  20,
		RebuildMBps:    100,
		RebuildTarget:  target,
	}
}

// replayConfig builds a System from cfg and replays tr through Replay,
// which executes the config's fault plan and power cut.
func replayConfig(cfg Config, tr Trace) (*Results, error) {
	sys, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Replay(tr)
}

func replayRebuild(target RebuildTarget) func(Config, Trace) (*Results, error) {
	return func(cfg Config, tr Trace) (*Results, error) {
		sys, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return sys.ReplayDuringRebuild(tr, 2, 10, target)
	}
}

var goldenPaths = []goldenPath{
	{name: "plain", scheme: SchemeSteering, replay: replayConfig,
		digest: "caf8a89f1ca2d2d1a7145168ac17fbebd84df676c33a42376940b6cddec4e405"},
	{name: "faults-spare", scheme: SchemeLGC,
		set:    func(c *Config) { c.Fault = goldenFaults(RebuildToSpare) },
		replay: replayConfig,
		digest: "07a57e1ddc13586a2bc2f0b139e18669c3202a24bf9cbaf0ed54497806bc46bc"},
	{name: "faults-reserved", scheme: SchemeSteering,
		set:    func(c *Config) { c.Fault = goldenFaults(RebuildToReserved) },
		replay: replayConfig,
		digest: "f7d596a560e9c7fbc47cafec11dc5a82db0fb5a2ff40e61e5a2995815e1d2dec"},
	{name: "rebuild-spare", scheme: SchemeLGC, replay: replayRebuild(RebuildToSpare),
		digest: "f24af4234a2e8bd377768681c17aee22069071ac627837ea262d2b10b519498e"},
	{name: "rebuild-reserved", scheme: SchemeSteering, replay: replayRebuild(RebuildToReserved),
		digest: "3eae3f426968d95ca9b84848dcc87cc97520a2a493985851066bfb28e85a453e"},
	{name: "powerloss-journal", scheme: SchemeLGC,
		set: func(c *Config) {
			c.IntentJournal = true
			c.PowerLossAtMs = 9
		},
		replay: replayConfig,
		digest: "07cd2bdcb3ea00eada07a6152ba552545a51fef5636d2f1ceb5ffb8cd9cc1596"},
	{name: "powerloss-no-journal", scheme: SchemeLGC,
		set:    func(c *Config) { c.PowerLossAtMs = 9 },
		replay: replayConfig,
		digest: "4ae1053daaabef2a38ecf6d64138b7fca06bdd3714eeece1d03f2a4bff63111a"},
	{name: "powerloss-during-rebuild", scheme: SchemeLGC,
		set: func(c *Config) {
			c.Checksums = true
			c.IntentJournal = true
			c.PowerLossAtMs = 13
			c.Fault = FaultPlan{
				Failures:      []DiskFault{{Disk: 1, AtMs: 4}},
				RepairDelayMs: 1,
				RebuildMBps:   50,
				RebuildTarget: RebuildToSpare,
			}
		},
		replay: replayConfig,
		digest: "140e13b0a5c2b2dec3e685990543a04a55cc0aa732a7b2cb871cd7f48c325f11"},
}

// TestReplayGoldenTraceDigests pins the SHA-256 of the JSONL event trace
// of every replay path. The trace records every arrival, sub-op, GC,
// fault, rebuild, crash and resync event in engine order, so a digest
// match means the path simulated the same thing, event for event.
func TestReplayGoldenTraceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("eight full replays")
	}
	for _, p := range goldenPaths {
		t.Run(p.name, func(t *testing.T) {
			cfg := smallConfig(p.scheme)
			if p.set != nil {
				p.set(&cfg)
			}
			tr := crashTrace(t, cfg, 1500)
			var buf bytes.Buffer
			cfg.Trace = NewTracer(&buf)
			if _, err := p.replay(cfg, tr); err != nil {
				t.Fatal(err)
			}
			if err := cfg.Trace.Flush(); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != p.digest {
				t.Fatalf("trace digest %s (%d bytes), want %s", got, buf.Len(), p.digest)
			}
		})
	}
}
