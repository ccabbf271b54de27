//go:build !race

package gcsteering

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// replayAllocs is the exact heap-allocation count of one Replay of
// allocGateRequests HPC_W requests on DefaultConfig. The simulation is
// deterministic, so the count is too: any change to it is a change to the
// replay path's allocations. Lower it when a change removes allocations;
// raise it only with the reason in the commit.
//
// The count belongs to one toolchain and platform, allocGateGo on
// allocGatePlatform: another runtime allocates differently (Go 1.24's map
// implementation alone moves it), so elsewhere the gate skips. CI runs it
// in a job pinned to allocGateGo. Re-measure both constants together when
// moving the pin.
const (
	allocGateRequests = 2000
	replayAllocs      = 63782
	allocGateGo       = "go1.24.0"
	allocGatePlatform = "linux/amd64"
)

// TestReplayAllocsExact pins replayAllocs. The race detector instruments
// allocations of its own, so the gate builds only without it. The
// collector is off while Replay runs: a GC cycle allocates a few runtime
// objects of its own, and how many cycles fall inside the replay depends
// on the heap the package's earlier tests left behind.
func TestReplayAllocsExact(t *testing.T) {
	if v, p := runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH; v != allocGateGo || p != allocGatePlatform {
		t.Skipf("replayAllocs is measured on %s %s; this is %s %s", allocGateGo, allocGatePlatform, v, p)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := DefaultConfig()
	tr, err := cfg.GenerateWorkload("HPC_W", allocGateRequests)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := sys.Replay(tr); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != replayAllocs {
		t.Fatalf("Replay of %d HPC_W requests allocated %d objects, want exactly %d", allocGateRequests, got, replayAllocs)
	}
}
