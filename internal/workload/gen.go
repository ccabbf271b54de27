package workload

import (
	"fmt"
	"math"
	"math/rand"

	"gcsteering/internal/sim"
	"gcsteering/internal/trace"
)

const sector = 512

// Options controls trace synthesis.
type Options struct {
	// Capacity is the byte size of the target volume (the RAID array's
	// logical capacity). Generated offsets stay inside it.
	Capacity int64
	// MaxRequests caps the emitted request count below the profile's
	// Table I count (0 = no cap).
	MaxRequests int
	// Seed makes generation deterministic.
	Seed int64
	// ArrivalScale multiplies the profile's MeanIOPS (>1 compresses the
	// trace in time, <1 stretches it). 0 means 1; NaN, ±Inf and negative
	// values are rejected. The
	// cluster layer uses it to give tenants sharing a profile distinct
	// load levels.
	ArrivalScale float64
}

// scatter is a large prime used to spread Zipf ranks across the address
// space so hot pages land on every member disk instead of clustering in
// the first stripes.
const scatter = 2654435761

// Generator synthesizes a trace for one profile. Create with NewGenerator;
// repeated Next calls stream records without materializing the whole trace.
type Generator struct {
	p   Profile
	opt Options
	rng *rand.Rand

	// region boundaries in sectors
	riEnd   int64
	wiEnd   int64
	sectors int64

	riZipf  *rand.Zipf
	wiZipf  *rand.Zipf
	mixZipf *rand.Zipf

	now       sim.Time
	burstLeft int
	emitted   int
	total     int
}

// NewGenerator validates the profile/options pair and prepares a stream.
func NewGenerator(p Profile, opt Options) (*Generator, error) {
	if p.Requests <= 0 || p.ReadRatio < 0 || p.ReadRatio > 1 {
		return nil, fmt.Errorf("workload: profile %q invalid: %+v", p.Name, p)
	}
	if p.MeanIOPS <= 0 || p.BurstFactor < 1 || p.BurstLen <= 0 {
		return nil, fmt.Errorf("workload: profile %q arrival params invalid", p.Name)
	}
	if p.RIFrac < 0 || p.WIFrac < 0 || p.RIFrac+p.WIFrac > 1 {
		return nil, fmt.Errorf("workload: profile %q region fractions invalid", p.Name)
	}
	if opt.Capacity < 1<<20 {
		return nil, fmt.Errorf("workload: capacity %d too small", opt.Capacity)
	}
	if a := opt.ArrivalScale; math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
		return nil, fmt.Errorf("workload: ArrivalScale %v must be finite and non-negative", a)
	}
	total := p.Requests
	if opt.MaxRequests > 0 && total > opt.MaxRequests {
		total = opt.MaxRequests
	}
	if opt.ArrivalScale > 0 {
		p.MeanIOPS *= opt.ArrivalScale
	}
	g := &Generator{
		p:   p,
		opt: opt,
		//lint:allow nodeterm workload stream: seeded from Options.Seed, the generator's one entropy input
		rng:     rand.New(rand.NewSource(opt.Seed)),
		sectors: opt.Capacity / sector,
		total:   total,
	}
	g.riEnd = int64(float64(g.sectors) * p.RIFrac)
	g.wiEnd = g.riEnd + int64(float64(g.sectors)*p.WIFrac)
	zs := p.ZipfS
	if zs <= 1 {
		zs = 1.01
	}
	riPages := uint64(g.riEnd/8) + 1 // 4 KiB pages in the RI region
	wiPages := uint64((g.wiEnd-g.riEnd)/8) + 1
	mixPages := uint64((g.sectors-g.wiEnd)/8) + 1
	g.riZipf = rand.NewZipf(g.rng, zs, 1, riPages-1)
	g.wiZipf = rand.NewZipf(g.rng, zs, 1, wiPages-1)
	// The mixed region is deliberately more concentrated: MIX pages exist
	// because reads and writes interleave on the *same* pages (Fig. 2), and
	// that requires collisions.
	g.mixZipf = rand.NewZipf(g.rng, zs+0.3, 1, mixPages-1)
	return g, nil
}

// Total returns how many records the stream will produce.
func (g *Generator) Total() int { return g.total }

// Next returns the next record, or false when the stream is exhausted.
func (g *Generator) Next() (trace.Record, bool) {
	if g.emitted >= g.total {
		return trace.Record{}, false
	}
	g.emitted++
	g.advanceClock()
	write := g.rng.Float64() >= g.p.ReadRatio
	size := g.drawSize()
	off := g.drawOffset(write, size)
	return trace.Record{Timestamp: g.now, Offset: off, Size: size, Write: write}, true
}

// Generate materializes the whole trace.
func Generate(p Profile, opt Options) (trace.Trace, error) {
	g, err := NewGenerator(p, opt)
	if err != nil {
		return nil, err
	}
	out := make(trace.Trace, 0, g.Total())
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, nil
}

// advanceClock implements the bursty on/off arrival process: requests
// arrive in bursts of ~BurstLen at BurstFactor times the mean rate,
// separated by idle gaps that restore the long-run MeanIOPS.
func (g *Generator) advanceClock() {
	if g.burstLeft == 0 {
		// Start a new burst after an idle gap (skipped for the first one).
		if g.emitted > 1 {
			burstSpan := float64(g.p.BurstLen) / g.p.MeanIOPS
			gap := burstSpan * (1 - 1/g.p.BurstFactor)
			g.now += sim.Time(g.rng.ExpFloat64() * gap * float64(sim.Second))
		}
		g.burstLeft = 1 + g.rng.Intn(2*g.p.BurstLen) // mean ≈ BurstLen
	}
	g.burstLeft--
	iat := 1 / (g.p.MeanIOPS * g.p.BurstFactor)
	g.now += sim.Time(g.rng.ExpFloat64() * iat * float64(sim.Second))
}

// drawSize returns a request size in bytes: fixed for the HPC profiles,
// geometric over sectors (mean = AvgReqKB) for enterprise profiles.
func (g *Generator) drawSize() int {
	if g.p.FixedSize {
		return int(g.p.AvgReqKB * 1024)
	}
	meanSectors := g.p.AvgReqKB * 1024 / sector
	if meanSectors < 1 {
		meanSectors = 1
	}
	// Geometric with mean meanSectors: success probability 1/mean.
	p := 1 / meanSectors
	n := 1
	for g.rng.Float64() >= p && n < 4096 {
		n++
	}
	return n * sector
}

// drawOffset picks the target region and address following the Figure 2
// model: reads concentrate on Zipf-popular pages of the RI region, writes
// on the WI region, with small mixed and cross shares.
func (g *Generator) drawOffset(write bool, size int) int64 {
	sectors := int64(size+sector-1) / sector
	var off int64
	u := g.rng.Float64()
	if !write {
		switch {
		case u < g.p.ReadToRI: // hot read data
			off = g.zipfSector(g.riZipf, 0, g.riEnd)
		case u < g.p.ReadToRI+(1-g.p.ReadToRI)*0.75: // mixed pages
			off = g.zipfSector(g.mixZipf, g.wiEnd, g.sectors)
		default: // rare reads of write-intensive data
			off = g.uniformSector(g.riEnd, g.wiEnd)
		}
	} else {
		switch {
		case u < g.p.WriteToWI: // write-intensive data
			off = g.zipfSector(g.wiZipf, g.riEnd, g.wiEnd)
		case u < g.p.WriteToWI+(1-g.p.WriteToWI)*0.75: // mixed pages
			off = g.zipfSector(g.mixZipf, g.wiEnd, g.sectors)
		default:
			// Rare updates of read-intensive data. Uniform, not Zipf: the
			// paper's §II-C observes that hot read blocks are not frequently
			// updated, so cross-writes land on the RI region's cold tail.
			off = g.uniformSector(0, g.riEnd)
		}
	}
	if off+sectors > g.sectors {
		off = g.sectors - sectors
	}
	if off < 0 {
		off = 0
	}
	return off * sector
}

// zipfSector maps a Zipf rank to a page-aligned sector inside [lo, hi),
// scattering ranks across the region so hot pages cover all member disks.
func (g *Generator) zipfSector(z *rand.Zipf, lo, hi int64) int64 {
	pages := (hi - lo) / 8
	if pages <= 0 {
		return lo
	}
	rank := int64(z.Uint64())
	page := (rank * scatter) % pages
	if page < 0 {
		page += pages
	}
	return lo + page*8
}

// uniformSector picks a page-aligned sector uniformly in [lo, hi).
func (g *Generator) uniformSector(lo, hi int64) int64 {
	pages := (hi - lo) / 8
	if pages <= 0 {
		return lo
	}
	return lo + g.rng.Int63n(pages)*8
}
