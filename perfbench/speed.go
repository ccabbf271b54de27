package main

import "runtime"

// The host this benchmark runs on changes speed under the load of other
// guests: unchanged code's CPU time per unit moved by up to 2.5x within an
// hour on the 2-vCPU virtual machine the benchmark was built on. Each run
// therefore times a fixed reference kernel, owned by the benchmark and
// untouched by changes to the simulator, before every set-up and every
// timed unit, and reports times at the reference speed:
//
//	reported = measured CPU seconds * refNominalSeconds / median(reference CPU seconds)
//
// A change that makes the simulator faster moves the reported time by the
// same share; a slower host slows the kernel and the simulator together, so
// the slowdown largely cancels. Raw CPU and wall seconds are kept in the
// result file.

// refNominalSeconds is the reference kernel's CPU time on the machine the
// benchmark was built on (2 vCPUs, Go 1.24, linux/amd64), so reported
// times read as seconds on that machine at its quiet speed.
const refNominalSeconds = 0.017

const (
	refMapKeys  = 1 << 14
	refSlotBits = 18
	refSteps    = 1_500_000
)

// referenceKernel does a fixed amount of the work the simulator's hot path
// does most: hash-map updates and scattered slice reads and writes over a
// few megabytes. It allocates nothing itself.
func referenceKernel(m map[int64]int32, s []int64) int64 {
	x := uint64(88172645463325252)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		m[int64(x&(refMapKeys-1))]++
		s[x&(1<<refSlotBits-1)] += int64(i)
	}
	return int64(len(m)) + s[7]
}

// speedProbe collects the reference kernel's CPU times over a run.
type speedProbe struct {
	samples []float64
	sink    int64 // keeps the kernel's result in use
}

// measure times the kernel on buffers allocated for this call. It collects
// garbage before the kernel, so that background marking does not land in
// its window, and after it, so that the next unit starts from a heap that
// holds none of the probe's memory.
func (p *speedProbe) measure() {
	m, s := make(map[int64]int32, refMapKeys), make([]int64, 1<<refSlotBits)
	runtime.GC()
	w := startWatch()
	p.sink += referenceKernel(m, s)
	_, cpu := w.elapsed()
	p.samples = append(p.samples, cpu)
	runtime.GC()
}

// factor converts this run's CPU seconds to reference-speed seconds.
func (p *speedProbe) factor() float64 { return refNominalSeconds / median(p.samples) }
