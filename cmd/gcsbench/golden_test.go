package main

import (
	"bytes"
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
