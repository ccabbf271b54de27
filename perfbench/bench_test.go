package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"gcsteering.(*System).submit":                               "gcsteering",
		"gcsteering/internal/flash.(*FTL).collectBlock":             "flash",
		"gcsteering/internal/raid.(*Array).writeStripe.func1":       "raid",
		"gcsteering/internal/sim.(*eventQueue).siftDown":            "sim",
		"gcsteering/internal/core.(*DTable).FirstWriteRunFor.func2": "core",
		"gcsteeringx.f":                 "",
		"runtime.mallocgc":              "",
		"main.runCmd":                   "",
		"internal/runtime/maps.h2":      "",
		"gcsteering/internal/obs.New":   "obs",
		"gcsteering/internal/sched.Run": "sched",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSampleLayer(t *testing.T) {
	for _, tc := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.memmove", "gcsteering/internal/raid.(*Array).submit"}, "raid"},
		{[]string{"runtime.mapaccess2_fast64", "gcsteering/internal/core.(*DTable).Get", "gcsteering/internal/raid.f"}, "core"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "gcsteering/internal/raid.barrier"}, layerGC},
		{[]string{"runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.futex", "runtime.schedule"}, layerOther},
		{[]string{"main.runPlain"}, layerOther},
	} {
		if got := sampleLayer(tc.stack); got != tc.want {
			t.Errorf("sampleLayer(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("step", "spin"), func(context.Context) { spin(400 * time.Millisecond) })
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p.cpuNs = int64(400 * time.Millisecond)
	lt := p.byLayer("step", "spin")
	if lt.samples == 0 {
		t.Fatal("no labelled samples")
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no sample has the spin frame")
	}
	if all := p.byLayer("", ""); all.total != p.cpuNs && all.total != p.cpuNs-1 {
		t.Errorf("layer times sum to %d, want the measured %d", all.total, p.cpuNs)
	}
}

func TestCountingSinkSplitWrites(t *testing.T) {
	stream := `{"t":1,"ev":"subop","dev":0}` + "\n" +
		`{"t":2,"ev":"gc-start","dev":1}` + "\n" +
		`{"t":3,"ev":"subop","dev":2}` + "\n"
	for cut := 0; cut <= len(stream); cut++ {
		s := newCountingSink()
		s.Write([]byte(stream[:cut]))
		s.Write([]byte(stream[cut:]))
		if s.kinds["subop"] != 2 || s.kinds["gc-start"] != 1 || len(s.kinds) != 2 {
			t.Fatalf("cut %d: counts %v", cut, s.kinds)
		}
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("3-6")
	if err != nil || len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Errorf("parseSeeds(3-6) = %v, %v", got, err)
	}
	got, err = parseSeeds("1, 9")
	if err != nil || len(got) != 2 || got[1] != 9 {
		t.Errorf("parseSeeds(1, 9) = %v, %v", got, err)
	}
	for _, bad := range []string{"6-3", "x", "1-y"} {
		if _, err := parseSeeds(bad); err == nil {
			t.Errorf("parseSeeds(%q) accepted", bad)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
