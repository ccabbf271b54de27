package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, ".", &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, name := range []string{"nodeterm", "maporder", "nilrecv", "units"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-analyzers", "nosuch"}, ".", &out, &errOut); code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
}

// TestFlagValidation checks that flags gcsvet does not define are usage
// errors: gcsvet only reports findings and has no rewrite mode.
func TestFlagValidation(t *testing.T) {
	for _, flag := range []string{"-fix", "-diff"} {
		var out, errOut strings.Builder
		if code := run([]string{flag}, ".", &out, &errOut); code != 2 {
			t.Errorf("%s exited %d, want 2", flag, code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Errorf("%s: missing usage diagnostic: %s", flag, errOut.String())
		}
	}
}

// writeFindingModule creates a throwaway module containing one maporder
// violation (key-only map range appending unsorted), returning its
// directory.
func writeFindingModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpfinding\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package p

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSarifFindings checks SARIF mode end to end on a module with one
// finding: a valid document, the right rule ID, and a failing exit.
func TestSarifFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export in a temp module")
	}
	dir := writeFindingModule(t)
	var out, errOut strings.Builder
	code := run([]string{"-analyzers", "maporder", "-sarif", "./..."}, dir, &out, &errOut)
	if code != 1 {
		t.Fatalf("-sarif with findings exited %d, want 1", code)
	}
	for _, want := range []string{`"version": "2.1.0"`, `"ruleId": "maporder"`, `"uri": "p.go"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("SARIF output missing %s:\n%s", want, out.String())
		}
	}
}

// TestCleanPackage runs the real pipeline end to end over the sim kernel,
// the determinism root of trust (the full-repo sweep lives in
// internal/lint's TestRepoIsClean).
func TestCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export")
	}
	var out, errOut strings.Builder
	if code := run([]string{"./internal/sim"}, "../..", &out, &errOut); code != 0 {
		t.Fatalf("gcsvet ./... exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}
