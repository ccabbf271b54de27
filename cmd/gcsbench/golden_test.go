package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all-300.json from the current code")

// TestAllExperimentsGolden pins the -json document of every experiment at
// a 300-request budget byte for byte. A change that is meant to keep
// simulated behaviour fixed (a refactor, a speedup) must leave it intact;
// one that is meant to move it regenerates the file with
//
//	go test ./cmd/gcsbench -run TestAllExperimentsGolden -update
func TestAllExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment grid")
	}
	golden := filepath.Join("testdata", "all-300.json")
	path := filepath.Join(t.TempDir(), "all.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "all", "-requests", "300", "-workers", "2", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-experiment all -requests 300 JSON (%d bytes) differs from %s (%d bytes); rerun with -update only if the change is meant to move simulated results",
			len(got), golden, len(want))
	}
}

// TestFig1TraceAndSeriesGolden pins the two side outputs of the
// tracing-aware Fig. 1 grid by SHA-256: the -trace JSONL event log and the
// -timeseries CSV (per-window quantiles, gauges) at a 300-request budget.
// The -json document alone would not notice an event or a window moving.
func TestFig1TraceAndSeriesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three traced Fig. 1 runs")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fig1.jsonl")
	seriesPath := filepath.Join(dir, "fig1.csv")
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "fig1", "-requests", "300", "-trace", tracePath, "-timeseries", seriesPath}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	for _, c := range []struct{ path, want string }{
		{tracePath, "f42590f8b8019d55dcde6f8a518816c78f28e917d747c11b35e50cdb723d379a"},
		{seriesPath, "da3be862d18db551160c1848e6825fee3f3e8d6c97f1fad0b77d2e7d9f0491f4"},
	} {
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s digest %s (%d bytes), want %s", filepath.Base(c.path), got, len(data), c.want)
		}
	}
}
