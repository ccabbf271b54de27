// Package workload synthesizes the paper's evaluation workloads. The real
// HPC, UMass Fin1 and MSR Cambridge traces are not redistributable, so each
// is modelled as a profile carrying the published Table I characteristics
// (read ratio, request count, average request size) plus an access-pattern
// model matched to §II-C / Figure 2: most pages are either read-intensive
// or write-intensive, hot read pages follow a Zipf popularity law and are
// rarely updated, and arrivals are bursty.
package workload

import "gcsteering/internal/sim"

// Profile describes one synthetic workload.
type Profile struct {
	// Name as used in the paper's tables.
	Name string
	// ReadRatio is the fraction of requests that are reads (Table I).
	ReadRatio float64
	// Requests is the Table I request count; runs cap it with the
	// generator's MaxRequests option.
	Requests int
	// AvgReqKB is the mean request size in KiB (Table I).
	AvgReqKB float64
	// FixedSize makes every request exactly AvgReqKB (the HPC-like
	// workloads issue uniform large requests; enterprise traces vary).
	FixedSize bool

	// MeanIOPS sets the long-run arrival rate; BurstFactor scales the rate
	// inside bursts (the paper replays "one-hour traces with bursty
	// periods"). BurstLen is the mean number of requests per burst.
	MeanIOPS    float64
	BurstFactor float64
	BurstLen    int

	// Page-type model (Figure 2). The address space splits into a
	// read-intensive region, a write-intensive region and a mixed region.
	// ReadToRI is the probability a read lands in the RI region; WriteToWI
	// likewise for writes. The remainder goes mostly to MIX with a small
	// cross-traffic share, yielding the >90%/>90% classification shape.
	ReadToRI  float64
	WriteToWI float64
	// RIFrac/WIFrac are the address-space fractions of the RI and WI
	// regions (the rest is MIX).
	RIFrac float64
	WIFrac float64
	// ZipfS is the Zipf skew of popularity inside the RI region; higher
	// values concentrate reads on fewer pages (hot data).
	ZipfS float64
}

// HPC returns the two HPC-like profiles of Table I. They are bursty,
// large-request (510.5 KB average), high-intensity workloads.
func HPC() []Profile {
	base := Profile{
		Requests:  500_000,
		AvgReqKB:  510.5,
		FixedSize: true,
		// At 510.5 KB per request, 15 IOPS is ≈ 7.7 MB/s of sustained array
		// traffic. That keeps the simulated device class comfortably below
		// saturation while the sheer write volume per request still makes
		// the HPC workloads the GC-heaviest of the evaluation, exactly the
		// paper's characterization.
		MeanIOPS:    10,
		BurstFactor: 2,
		BurstLen:    64,
		ReadToRI:    0.90,
		WriteToWI:   0.95,
		RIFrac:      0.40,
		WIFrac:      0.40,
		ZipfS:       1.1,
	}
	w := base
	w.Name = "HPC_W"
	w.ReadRatio = 0.201
	r := base
	r.Name = "HPC_R"
	r.ReadRatio = 0.799
	return []Profile{w, r}
}

// Enterprise returns the six enterprise profiles of Table I: the UMass
// financial OLTP trace (Fin1) and the five MSR Cambridge volumes.
func Enterprise() []Profile {
	mk := func(name string, readRatio float64, reqs int, avgKB float64, iops float64) Profile {
		return Profile{
			Name:        name,
			ReadRatio:   readRatio,
			Requests:    reqs,
			AvgReqKB:    avgKB,
			MeanIOPS:    iops,
			BurstFactor: 6,
			BurstLen:    64,
			ReadToRI:    0.90,
			WriteToWI:   0.955,
			RIFrac:      0.40,
			WIFrac:      0.40,
			ZipfS:       1.1,
		}
	}
	return []Profile{
		mk("Fin1", 0.328, 5_334_987, 11.9, 700),
		mk("hm_0", 0.355, 3_993_316, 8.3, 500),
		mk("mds_0", 0.119, 1_211_034, 7.2, 250),
		mk("prxy_0", 0.027, 12_518_968, 2.5, 1600),
		mk("rsrch_0", 0.093, 14_333_655, 8.7, 900),
		mk("wdev_0", 0.201, 1_143_261, 9.4, 320),
	}
}

// All returns all eight Table I profiles in the paper's order.
func All() []Profile { return append(HPC(), Enterprise()...) }

// ByName returns the named profile, or false.
func ByName(name string) (Profile, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Names lists the profile names in the paper's order.
func Names() []string {
	ps := All()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// MeanInterarrival returns the long-run mean time between requests.
func (p Profile) MeanInterarrival() sim.Time {
	return sim.Time(float64(sim.Second) / p.MeanIOPS)
}
