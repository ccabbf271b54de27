package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the layer
// attribution needs: each sample's stack as function names (leaf first),
// its signal count, and its labels.
type cpuProfile struct {
	samples []profSample
	// cpuNs is the process CPU time measured around the profile. The
	// kernel may deliver fewer profiling signals than the requested rate
	// (timer resolution), so sample weights understate CPU time; layer
	// times are the layer's share of samples times this measurement.
	cpuNs int64
}

type profSample struct {
	stack  []string // function names, innermost first, inlined frames expanded
	count  int64    // profiling-signal samples merged into this record
	labels map[string]string
}

// parseCPUProfile decodes a gzipped profile.proto as written by
// runtime/pprof. Only the fields listed in the pprof schema that the
// attribution reads are decoded: sample (2), location (4), function (5),
// string_table (6).
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, str string-table indexes
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> name string index
		strs      []string
		typeIdx   []int64 // sample_type value types (type string indexes)
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, bb []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, w, v, bb)
				case 2:
					for _, u := range appendPacked(nil, w, v, bb) {
						s.values = append(s.values, int64(u))
					}
				case 3:
					var k, str int64
					if err := eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						switch n {
						case 1:
							k = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{k, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, bb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(bb, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	countIdx := -1
	for i, t := range typeIdx {
		if str(t) == "samples" {
			countIdx = i
		}
	}
	if countIdx < 0 {
		return nil, errors.New("pprof: no samples value type (not a CPU profile)")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if countIdx >= len(s.values) {
			return nil, errors.New("pprof: sample without a count")
		}
		ps := profSample{count: s.values[countIdx]}
		for _, l := range s.locs {
			for _, f := range locLines[l] {
				ps.stack = append(ps.stack, str(funcNames[f]))
			}
		}
		if len(s.labels) > 0 {
			ps.labels = map[string]string{}
			for _, kv := range s.labels {
				ps.labels[str(kv[0])] = str(kv[1])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may arrive packed
// (wire type 2) or as one varint per occurrence (wire type 0); the Go
// profile writer uses both depending on the slice length.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with the field number,
// wire type, and either the varint/fixed value or the length-delimited
// bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// modulePath is the simulator's module path; frames under it are layers.
const modulePath = "gcsteering"

// Layer names used for attribution besides the module's own packages.
const (
	layerGC    = "runtime.gc" // garbage-collector work: marking, assists, write barriers, sweeping
	layerOther = "other"      // scheduler, profiler, syscalls and the benchmark's own code
)

// gcFramePrefixes identify runtime functions that do garbage-collection
// work. A sample whose stack passes through one of them before reaching a
// module frame is charged to the collector rather than to the layer that
// happened to trigger it.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.(*gc", "runtime.GC",
	"runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.markroot", "runtime.scan", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	"runtime.deductSweepCredit", "runtime.bgscavenge", "runtime.(*scavengerState)",
	"runtime.(*mheap).reclaim",
}

func isGCFrame(fn string) bool {
	for _, p := range gcFramePrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// frameLayer maps a function symbol to the module package it belongs to:
// "gcsteering.(*System).submit" is the root package "gcsteering",
// "gcsteering/internal/flash.(*FTL).collectBlock" is "flash". Symbols
// outside the module return "".
func frameLayer(fn string) string {
	if !strings.HasPrefix(fn, modulePath) {
		return ""
	}
	rest := fn[len(modulePath):]
	if strings.HasPrefix(rest, ".") {
		return modulePath
	}
	if !strings.HasPrefix(rest, "/") {
		return ""
	}
	pkg := rest[1:]
	// The package path ends at the first '.' after its last '/'.
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	return pkg[strings.LastIndexByte(pkg, '/')+1:]
}

// sampleLayer charges one sample: to the collector when GC work sits
// between the leaf and the innermost module frame, otherwise to the
// innermost module frame's package (so runtime map, memmove and malloc
// work goes to the layer that called it), otherwise to "other".
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if isGCFrame(fn) {
			return layerGC
		}
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return layerOther
}

// layerTime is the per-layer self CPU time of a profile, optionally
// restricted to samples carrying a label value.
type layerTime struct {
	ns      map[string]int64
	total   int64
	samples int64
}

func (p *cpuProfile) byLayer(labelKey, labelVal string) layerTime {
	var all int64
	for _, s := range p.samples {
		all += s.count
	}
	lt := layerTime{ns: map[string]int64{}}
	if all == 0 {
		return lt
	}
	perSample := float64(p.cpuNs) / float64(all)
	counts := map[string]int64{}
	for _, s := range p.samples {
		if labelKey != "" && s.labels[labelKey] != labelVal {
			continue
		}
		counts[sampleLayer(s.stack)] += s.count
		lt.samples += s.count
	}
	for l, n := range counts {
		lt.ns[l] = int64(float64(n) * perSample)
	}
	lt.total = int64(float64(lt.samples) * perSample)
	return lt
}
