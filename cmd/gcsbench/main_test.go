package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestUnknownExperimentExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "fig99"}, &out, &errb); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if !strings.Contains(errb.String(), `unknown experiment "fig99"`) {
		t.Fatalf("stderr %q lacks a clear unknown-experiment message", errb.String())
	}
	// The error lists what IS runnable, so a typo is a one-step fix.
	for _, e := range experiments {
		if !strings.Contains(errb.String(), e.name) {
			t.Fatalf("stderr %q does not name experiment %q", errb.String(), e.name)
		}
	}
}

func TestListExperimentsPrintsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list-experiments"}, &out, &errb); code != 0 {
		t.Fatalf("-list-experiments exited %d: %s", code, errb.String())
	}
	for _, e := range experiments {
		if !strings.Contains(out.String(), e.name) {
			t.Fatalf("registry %q missing experiment %q", out.String(), e.name)
		}
		if e.blurb == "" {
			t.Fatalf("experiment %q has no blurb", e.name)
		}
		if !strings.Contains(out.String(), e.blurb) {
			t.Fatalf("registry %q missing blurb for %q", out.String(), e.name)
		}
		if (e.text == nil) == (e.grid == nil) {
			t.Fatalf("experiment %q must run exactly one of a text or a grid function", e.name)
		}
	}
	if !strings.Contains(out.String(), "all") {
		t.Fatalf("registry %q missing the all pseudo-experiment", out.String())
	}
}

func TestListExperimentsSorted(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list-experiments"}, &out, &errb); code != 0 {
		t.Fatalf("-list-experiments exited %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	// Every line except the trailing "all" summary must be in sorted order.
	var names []string
	for _, l := range lines[:len(lines)-1] {
		names = append(names, strings.Fields(l)[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registry not sorted: %v", names)
	}
	if len(names) != len(experiments) {
		t.Fatalf("registry lists %d experiments, have %d", len(names), len(experiments))
	}
}

// TestRegistryNamesUnique pins that every name -experiment accepts
// selects exactly one registry row.
func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]string{"all": "the all pseudo-experiment"}
	for _, e := range experiments {
		for _, n := range append([]string{e.name}, e.aliases...) {
			if prev, ok := seen[n]; ok {
				t.Fatalf("name %q selects both %s and %s", n, prev, e.name)
			}
			seen[n] = e.name
			if got, ok := lookup(n); !ok || got.name != e.name {
				t.Fatalf("lookup(%q) = %q, %v; want %q", n, got.name, ok, e.name)
			}
		}
	}
}

func TestJSONDocCarriesSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "table1", "-requests", "300", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != jsonSchemaVersion {
		t.Fatalf("schema = %d, want %d", doc.Schema, jsonSchemaVersion)
	}
}

func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet grid")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "cluster", "-requests", "800"}, &out, &errb); code != 0 {
		t.Fatalf("cluster exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"Fleet simulation", "hash-only", "gc-aware", "redirects"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("cluster output missing %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownFlagExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code == 0 {
		t.Fatal("unknown flag exited 0")
	}
}

func TestUnwritableOutputPathsExitNonZero(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "out")
	for _, flag := range []string{"-trace", "-timeseries"} {
		var out, errb bytes.Buffer
		code := run([]string{"-experiment", "table1", flag, bad}, &out, &errb)
		if code == 0 {
			t.Fatalf("%s %s exited 0", flag, bad)
		}
		if !strings.Contains(errb.String(), "create") {
			t.Fatalf("%s: stderr %q lacks the create error", flag, errb.String())
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "table1", "-requests", "500"}, &out, &errb); code != 0 {
		t.Fatalf("table1 exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Fatalf("stdout %q lacks the Table I report", out.String())
	}
}
