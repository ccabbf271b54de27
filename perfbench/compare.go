package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// recordCmd records goldens: perfbench record -seeds 0-99 [-workload all].
func recordCmd(args []string) error {
	fs := flag.NewFlagSet("perfbench record", flag.ContinueOnError)
	seeds := fs.String("seeds", "0", "seeds to record: a list (1,5,9) or an inclusive range (0-99)")
	name := fs.String("workload", "all", "workload to record, or all")
	path := fs.String("goldens", filepath.Join("perfbench", "goldens.json"), "goldens file to merge into")
	force := fs.Bool("force", false, "replace goldens that disagree with this build's output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ss, err := parseSeeds(*seeds)
	if err != nil {
		return err
	}
	var names []string
	if *name == "all" {
		for _, b := range benches {
			names = append(names, b.name)
		}
	} else {
		names = []string{*name}
	}
	return recordGoldens(*path, names, ss, *force)
}

func parseSeeds(s string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok && lo != "" {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		var out []int64
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, x)
	}
	return out, nil
}

// compareCmd prints two result files side by side. It refuses results
// whose machine stamps differ: numbers from different machines, core
// counts or toolchains are not a comparison.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare base.json new.json")
	}
	var rs [2]result
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := rs[0], rs[1]
	if a.Stamp != b.Stamp {
		return fmt.Errorf("refusing to compare: machine stamps differ (%s: %s; %s: %s)", args[0], a.Stamp, args[1], b.Stamp)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare: %s is %s trace=%v seconds=%d, %s is %s trace=%v seconds=%d",
			args[0], a.Workload, a.Trace, a.Seconds, args[1], b.Workload, b.Trace, b.Seconds)
	}
	fmt.Printf("stamp %s\nworkload %s (seeds %d vs %d)\n", a.Stamp, a.Workload, a.Seed, b.Seed)
	var names []string
	for n := range a.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Metrics[n], b.Metrics[n]
		change := "n/a"
		if ma.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Printf("%-32s %14.6g %14.6g %10s %s\n", n, ma.Value, mb.Value, change, ma.Unit)
	}
	return nil
}
