package gcsteering

import (
	"fmt"
	"io"
	"math/rand"

	"errors"

	"gcsteering/internal/core"
	"gcsteering/internal/fault"
	"gcsteering/internal/health"
	"gcsteering/internal/metrics"
	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/rebuild"
	"gcsteering/internal/sched"
	"gcsteering/internal/scrub"
	"gcsteering/internal/sim"
	"gcsteering/internal/ssd"
	"gcsteering/internal/trace"
	"gcsteering/internal/workload"
)

// Trace and Record re-export the trace model for the public API.
type (
	// Trace is an ordered sequence of I/O requests.
	Trace = trace.Trace
	// Record is one I/O request.
	Record = trace.Record
	// Profile is a synthetic workload description.
	Profile = workload.Profile
	// LatencySummary holds response-time statistics (nanoseconds).
	LatencySummary = metrics.Summary
	// SteeringStats exposes the redirector's counters.
	SteeringStats = core.Stats
	// Time is a simulated instant/duration in nanoseconds.
	Time = sim.Time
	// Tracer is the structured event tracer (see Config.Trace). The emitted
	// stream is newline-delimited JSON; the schema is documented in
	// internal/obs and README.md.
	Tracer = obs.Tracer
	// Recorder is the windowed time-series collector behind Results.Series.
	Recorder = metrics.Recorder
	// ScrubStats exposes the patrol scrubber's counters (Results.Scrub).
	ScrubStats = scrub.Stats
)

// NewTracer returns a structured event tracer writing JSON lines to w.
// Assign it to Config.Trace and call Flush after the run.
func NewTracer(w io.Writer) *Tracer { return obs.New(w) }

// Profiles returns the paper's eight Table I workload profiles.
func Profiles() []Profile { return workload.All() }

// ProfileByName returns the named Table I profile.
func ProfileByName(name string) (Profile, bool) { return workload.ByName(name) }

// System is one assembled storage system: an engine, the member SSDs, the
// RAID array, the selected GC scheme, and (for SchemeSteering) the
// steering controller and staging space.
type System struct {
	cfg Config

	eng   *sim.Engine
	devs  []*ssd.Device
	disks []raid.Disk
	arr   *raid.Array
	hub   *sched.Hub
	ggc   *sched.GGC
	steer *core.Steering
	spare *ssd.Device // dedicated staging and/or rebuild spare

	lat       metrics.Hist
	readLat   metrics.Hist
	writeLat  metrics.Hist
	degLat    metrics.Hist // requests submitted while the array was degraded
	gcLat     metrics.Hist // submitted while >= 1 member collected (not degraded)
	gcRdLat   metrics.Hist // the read-only subset of gcLat (hedged-read target)
	quietLat  metrics.Hist // submitted with no GC and full redundancy
	rec       *metrics.Recorder
	gcGauge   metrics.Gauge // gc_active, sampled once per arrival
	stGauge   metrics.Gauge // staging_free_write_slots (steering only)
	quarGauge metrics.Gauge // quarantined_devices (health monitor only)
	inflGauge metrics.Gauge // inflight, sampled once per arrival
	trace     *obs.Tracer
	reqSeq    int64
	inFlight  int

	// The arrival cursor (scheduleArrivals): arrivals is the trace being
	// streamed, arrivalBase the engine instant its timestamps count from,
	// next the index of the next record to arrive. While gated (the
	// journal-on remount resyncing before it serves), arrivals are parked
	// instead of submitted; held counts them — always the records just
	// before next — and openGate submits them.
	arrivals    Trace
	arrivalBase sim.Time
	next        int
	gated       bool
	held        int
	// arrivalLag, normally zero, is the stall openGate charges the request
	// it submits: the wait between its arrival and gate-open, folded into
	// its recorded response time.
	arrivalLag int64

	rejected int64 // requests refused by admission control

	faults   *fault.Controller // non-nil when Config.Fault is enabled
	scrubber *scrub.Scrubber   // non-nil when Config.ScrubMBps > 0
	health   *health.Monitor   // non-nil when Config.Quarantine
	nrepl    int               // replacement SSDs created so far (device IDs)
	busy     *busyLog          // non-nil when Config.RecordBusy

	// onRequest, when set via ObserveRequests, fires once per submitted
	// request as it settles (completes or is rejected).
	onRequest func(seq int64, latNs int64, rejected bool)

	// measuring gates response-time recording; ReplayDuringRebuild stops
	// recording when reconstruction completes so the results describe the
	// recovery period, as the paper's Fig. 11 does.
	measuring       bool
	rebuildDuration sim.Time
	// replayed marks a System whose one replay has begun.
	replayed bool
}

// New builds and warms up a system.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		eng:   sim.NewEngine(),
		rec:   metrics.NewRecorder(int64(100*sim.Millisecond), cfg.WindowQuantiles),
		trace: cfg.Trace,
	}
	s.gcGauge = s.rec.GaugeHandle("gc_active")
	// Registered for every scheme (only steering ever sets it) so multi-run
	// CSV exports share one column schema regardless of the scheme mix.
	s.stGauge = s.rec.GaugeHandle("staging_free_write_slots")
	// Same rationale: always in the schema, driven only when the feature is
	// enabled.
	s.quarGauge = s.rec.GaugeHandle("quarantined_devices")
	s.inflGauge = s.rec.GaugeHandle("inflight")
	if cfg.WindowQuantiles {
		// Detailed-series mode also samples engine pressure: queue depth
		// every 64 fired events, folded into the same window grid.
		s.eng.SetProbe(64, func(now sim.Time, pending int) {
			s.rec.SetGauge("engine_pending", int64(now), float64(pending))
		})
	}
	devCfg := cfg.deviceConfig()
	//lint:allow nodeterm root stream: every per-device seed below derives from Config.Seed through it
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Disks; i++ {
		d, err := ssd.New(i, s.eng, devCfg)
		if err != nil {
			return nil, err
		}
		d.Trace = cfg.Trace
		//lint:allow nodeterm per-device prefill stream seeded from the root stream, stable in loop order
		d.Prefill(rand.New(rand.NewSource(rng.Int63())), prefillOverwrite, cfg.diskPages())
		s.devs = append(s.devs, d)
		s.disks = append(s.disks, d)
	}
	lay := raid.Layout{
		Level:     cfg.Level,
		Disks:     cfg.Disks,
		UnitPages: cfg.unitPages(),
		DiskPages: cfg.diskPages(),
	}
	arr, err := raid.NewArray(s.eng, lay, s.disks)
	if err != nil {
		return nil, err
	}
	arr.Trace = cfg.Trace
	arr.VerifyReads = cfg.Checksums
	arr.HedgedReads = cfg.HedgedReads
	s.arr = arr
	s.hub = sched.NewHub(s.devs)

	switch cfg.Scheme {
	case SchemeLGC:
		sched.LGC{}.Attach(s.hub)
	case SchemeGGC:
		s.ggc = &sched.GGC{}
		s.ggc.Attach(s.hub)
	case SchemeSteering:
		staging, err := s.buildStaging(rng)
		if err != nil {
			return nil, err
		}
		st := core.New(s.eng, arr, staging)
		st.Trace = cfg.Trace
		s.steer = st
		s.hub.SubscribeEnd(func(now sim.Time, d *ssd.Device) { st.OnDeviceGCEnd(now, d.ID) })
	default:
		return nil, fmt.Errorf("gcsteering: unknown scheme %v", cfg.Scheme)
	}

	if cfg.RecordBusy {
		s.busy = newBusyLog(cfg.Disks)
		s.hub.SubscribeStart(func(now sim.Time, d *ssd.Device) { s.busy.note(BusyGC, d.ID, now, true) })
		s.hub.SubscribeEnd(func(now sim.Time, d *ssd.Device) { s.busy.note(BusyGC, d.ID, now, false) })
	}

	// Robustness wiring: retries with backoff, admission control, and the
	// fail-slow health monitor. All of it is inert (and byte-identical to a
	// run without it) until a fault plan or queue pressure exercises it.
	arr.MaxRetries = cfg.MaxRetries
	arr.QueueLimit = cfg.QueueLimit
	if cfg.QueueLimit > 0 && s.steer != nil {
		s.steer.Pressure = arr.UnderPressure
	}
	if cfg.Quarantine {
		mon := health.NewMonitor(s.eng, cfg.Disks, health.Config{})
		mon.Trace = cfg.Trace
		mon.Probe = func(now sim.Time, dev int) {
			// One-page probe read; the op hook below judges it synchronously.
			// A failed member rejects the read — the probe then observes
			// nothing and the breaker stays open until the slot is repaired.
			_ = s.devs[dev].Read(now, 0, 1, nil)
		}
		s.hub.SubscribeOp(func(now sim.Time, d *ssd.Device, write bool, pages int, lat, svc sim.Time) {
			// Health is judged on service time, not completion latency: a
			// burst backlog inflates queueing on a healthy member, while a
			// fail-slow fault inflates the op's own channel time.
			mon.Observe(now, d.ID, pages, svc, d.InGC(now))
		})
		mon.OnChange = func(now sim.Time, dev int, open bool) {
			s.quarGauge.Set(int64(now), float64(mon.OpenCount()))
			if s.busy != nil {
				s.busy.note(BusyBreaker, dev, now, open)
			}
			if !open && s.steer != nil {
				// Reinstatement kicks the reclaim drain, like a GC-end event:
				// write-backs deferred while the member was quarantined resume.
				s.steer.OnDeviceGCEnd(now, dev)
			}
		}
		arr.Quarantined = func(now sim.Time, d int) bool { return mon.Quarantined(d) }
		if s.steer != nil {
			s.steer.Unhealthy = func(now sim.Time, disk int) bool { return mon.Quarantined(disk) }
		}
		s.health = mon
	}
	return s, nil
}

// rebuildReservePages is the slice at the top of each member's reserved
// region set aside for parallel reconstruction (it must not collide with
// the staging allocator's slots). It is large enough to hold an equal
// share of a failed member's contents when the reservation allows,
// otherwise capped at two thirds of the reservation.
func (s *System) rebuildReservePages() int {
	reserved := s.cfg.Flash.LogicalPages() - s.cfg.diskPages()
	if s.cfg.Scheme != SchemeSteering || s.cfg.Staging != StagingReserved {
		return 0
	}
	unit := s.cfg.unitPages()
	need := (s.cfg.diskPages()/(s.cfg.Disks-1)/unit + 1) * unit
	if max := reserved * 2 / 3; need > max {
		need = max
	}
	return need
}

// buildStaging assembles the configured staging space.
func (s *System) buildStaging(rng *rand.Rand) (core.Staging, error) {
	switch s.cfg.Staging {
	case StagingReserved:
		reserved := s.cfg.Flash.LogicalPages() - s.cfg.diskPages()
		reserved -= s.rebuildReservePages()
		return core.NewReservedStaging(s.disks, s.cfg.diskPages(), reserved, stagingReadFrac)
	case StagingDedicated:
		spare, err := s.ensureSpare(rng.Int63())
		if err != nil {
			return nil, err
		}
		return core.NewDedicatedStaging(spare, stagingReadFrac)
	default:
		return nil, fmt.Errorf("gcsteering: unknown staging kind %v", s.cfg.Staging)
	}
}

// ensureSpare lazily creates the spare SSD.
func (s *System) ensureSpare(seed int64) (*ssd.Device, error) {
	if s.spare != nil {
		return s.spare, nil
	}
	spare, err := ssd.New(s.cfg.Disks, s.eng, s.cfg.deviceConfig())
	if err != nil {
		return nil, err
	}
	// The spare starts fresh: it holds no host data until it is used as a
	// staging space or a rebuild target.
	spare.Trace = s.trace
	//lint:allow nodeterm spare prefill stream: seed is threaded in from the Config.Seed-derived root stream
	spare.Prefill(rand.New(rand.NewSource(seed)), 0, 0)
	s.spare = spare
	return spare, nil
}

// Capacity returns the array's logical capacity in bytes; generated
// workloads should target it.
func (s *System) Capacity() int64 {
	return int64(s.arr.Layout().LogicalPages()) * int64(s.cfg.Flash.PageSize)
}

// submit issues one request to the array and records its response time.
// It is a gcsvet hot-path root: it runs once per replayed request (the
// arrival cursor calls it from inside Engine.Run), so hotalloc holds it
// and everything it reaches allocation-free.
//
//gcsvet:hot
func (s *System) submit(now sim.Time, r Record) {
	page, pages := r.PageView(s.cfg.Flash.PageSize)
	total := s.arr.Layout().LogicalPages()
	if pages > total {
		pages = total
	}
	if page+pages > total {
		page = total - pages
	}
	s.inFlight++
	record := s.measuring
	degraded := record && s.arr.Degraded()
	inGC := false
	if record {
		// Classify the request's phase at arrival (degraded wins over GC)
		// and sample the phase-describing gauges on the same window grid.
		n := 0
		for _, d := range s.devs {
			if d.InGC(now) {
				n++
			}
		}
		inGC = n > 0
		s.gcGauge.Set(int64(now), float64(n))
		if s.steer != nil {
			s.stGauge.Set(int64(now), float64(s.steer.Staging().FreeWriteSlots()))
		}
		if s.cfg.QueueLimit > 0 {
			s.inflGauge.Set(int64(now), float64(s.inFlight))
		}
	}
	seq := s.reqSeq
	s.reqSeq++
	if s.trace.Enabled() {
		s.trace.Emit(now, obs.Event{Kind: obs.KArrival, Dev: -1,
			Page: int64(page), Pages: int32(pages),
			Aux: boolInt(r.Write), Aux2: seq})
	}
	// The array fires done exactly once per admitted request. Settling
	// itself is a method, not a nested closure, so each request allocates
	// one callback.
	isWrite := r.Write
	lag := s.arrivalLag
	done := func(t sim.Time) { //lint:allow hotalloc sanctioned one completion callback per request; see comment above
		d := int64(t-now) + lag
		if s.trace.Enabled() {
			s.trace.Emit(t, obs.Event{Kind: obs.KComplete, Dev: -1, Page: -1,
				Aux: d, Aux2: seq})
		}
		s.settleRequest(now, seq, d, isWrite, record, degraded, inGC)
	}
	var err error
	if r.Write {
		err = s.arr.Write(now, page, pages, done)
	} else {
		err = s.arr.Read(now, page, pages, done)
	}
	if errors.Is(err, raid.ErrOverloaded) {
		// Admission control shed this request: no sub-ops were issued and
		// done will never fire. Count it, don't record a response time.
		s.inFlight--
		s.rejected++
		if s.onRequest != nil {
			s.onRequest(seq, 0, true)
		}
		if s.trace.Enabled() {
			s.trace.Emit(now, obs.Event{Kind: obs.KReject, Dev: -1,
				Page: int64(page), Pages: int32(pages),
				Aux: int64(s.arr.Inflight()), Aux2: seq})
		}
		return
	}
	if err != nil {
		// The range was clamped to the array above, so an error here is an
		// internal invariant violation, not bad trace input.
		panic(err)
	}
}

// settleRequest records one settled request's response time against the
// phase it was classified into at arrival. now is the arrival instant (the
// time-series window the request belongs to), d the response time in
// nanoseconds.
func (s *System) settleRequest(now sim.Time, seq, d int64, isWrite, record, degraded, inGC bool) {
	s.inFlight--
	if s.onRequest != nil {
		s.onRequest(seq, d, false)
	}
	if !record {
		return
	}
	s.lat.Observe(d)
	s.rec.Observe(int64(now), d)
	switch {
	case degraded:
		s.degLat.Observe(d)
	case inGC:
		s.gcLat.Observe(d)
		if !isWrite {
			s.gcRdLat.Observe(d)
		}
	default:
		s.quietLat.Observe(d)
	}
	if isWrite {
		s.writeLat.Observe(d)
	} else {
		s.readLat.Observe(d)
	}
}

// startScrub launches the patrol scrubber when the config enables it
// (Config.ScrubMBps > 0). It runs alongside the replayed workload, paced by
// its bandwidth cap, and finishes after one full pass.
func (s *System) startScrub() error {
	if s.cfg.ScrubMBps <= 0 {
		return nil
	}
	sc, err := scrub.New(s.eng, s.arr, scrub.Config{MBps: s.cfg.ScrubMBps}, s.cfg.Flash.PageSize)
	if err != nil {
		return err
	}
	sc.Trace = s.trace
	if s.cfg.QueueLimit > 0 {
		sc.Pressure = s.arr.UnderPressure
	}
	s.scrubber = sc
	sc.Start(s.eng.Now())
	return nil
}

// Replay drives the trace through the system open-loop (arrivals at trace
// timestamps) and runs to quiescence, returning the measured results. It
// executes everything the Config carries: the fault plan (Config.Fault),
// whose reliability measurements land in Results.Fault, and the power cut
// (Config.PowerLossAtMs), after which Replay remounts the array, resyncs
// it, and serves the rest of the trace (see replayPowerLoss).
//
// Replay may be called once per System; build a fresh System per run.
func (s *System) Replay(tr Trace) (*Results, error) {
	if err := s.begin(tr); err != nil {
		return nil, err
	}
	if s.cfg.PowerLossAtMs > 0 {
		return s.replayPowerLoss(tr)
	}
	if err := s.drive(tr, nil, 0); err != nil {
		return nil, err
	}
	return s.results(), nil
}

// begin checks a replay's trace and claims the System for that replay.
func (s *System) begin(tr Trace) error {
	if s.replayed {
		return fmt.Errorf("gcsteering: System already replayed a trace; build a fresh System per run")
	}
	if err := trace.Validate(tr); err != nil {
		return err
	}
	if len(tr) == 0 {
		return fmt.Errorf("gcsteering: empty trace")
	}
	s.replayed = true
	return nil
}

// drive is the one replay driver. It arms the fault plan when the Config
// enables one, runs setup (ReplayDuringRebuild's scripted member loss, the
// remount's torn pages and resync), starts the scrubber, and streams tr
// through the arrival cursor. With cut > 0 it stops the engine at that
// instant, leaving the crash state for replayPowerLoss to harvest;
// otherwise it runs to quiescence, drains the steering controller, and
// closes the fault controller's books.
func (s *System) drive(tr Trace, setup func() error, cut sim.Time) error {
	s.measuring = true
	if s.cfg.Fault.Enabled() {
		if err := s.armFaults(); err != nil {
			return err
		}
	}
	if setup != nil {
		if err := setup(); err != nil {
			return err
		}
	}
	if err := s.startScrub(); err != nil {
		return err
	}
	s.scheduleArrivals(tr)
	if cut > 0 {
		s.eng.RunUntil(cut)
		return nil
	}
	s.eng.Run()
	if s.steer != nil {
		// Flush redirected write data back so the system ends consistent.
		s.steer.DrainAll(s.eng.Now())
		s.eng.Run()
	}
	if s.faults == nil {
		return nil
	}
	s.faults.Finish(s.eng.Now())
	return s.faults.Err()
}

// scheduleArrivals streams the trace into the engine one arrival at a
// time (scheduling all arrivals up front would bloat the event queue). A
// single closure advances the System's cursor, rather than one closure per
// arrival; the submit-then-schedule order matches the old recursive shape,
// so event sequence numbers — and therefore traces — are unchanged. While
// the cursor is gated, arrivals are parked for openGate instead.
//
// Hot root: the cursor closure re-fires once per trace request, so
// everything it reaches is replay steady-state. hotalloc enforcing this
// is what keeps the "single closure" promise above from regressing.
//
//gcsvet:hot
func (s *System) scheduleArrivals(tr Trace) {
	if len(tr) == 0 {
		return // a cut after the last arrival leaves the remount nothing to serve
	}
	s.arrivals, s.arrivalBase, s.next = tr, s.eng.Now(), 0
	var step func(now sim.Time)
	step = func(now sim.Time) { //lint:allow hotalloc one cursor closure per replay, re-armed per arrival rather than reallocated
		if s.gated {
			s.held++
		} else {
			s.submit(now, s.arrivals[s.next])
		}
		s.next++
		if s.next < len(s.arrivals) {
			s.eng.At(s.arrivalBase+s.arrivals[s.next].Timestamp, step)
		}
	}
	s.eng.At(s.arrivalBase+tr[0].Timestamp, step)
}

// openGate releases a gated arrival cursor: every parked arrival is
// submitted now, in arrival order, charged the wait since it arrived.
func (s *System) openGate(now sim.Time) {
	s.gated = false
	for _, r := range s.arrivals[s.next-s.held : s.next] {
		s.arrivalLag = int64(now - (s.arrivalBase + r.Timestamp))
		s.submit(now, r)
	}
	s.arrivalLag, s.held = 0, 0
}

// RebuildTarget selects where reconstruction writes the regenerated data.
type RebuildTarget int

const (
	// RebuildToSpare writes to a dedicated replacement SSD (the
	// traditional workflow, used by the baselines and by GC-Steering
	// Dedicated in Fig. 11).
	RebuildToSpare RebuildTarget = iota
	// RebuildToReserved writes in parallel into the reserved space of the
	// survivors (GC-Steering Reserved's parallel reconstruction).
	RebuildToReserved
)

// ReplayDuringRebuild fails member failDisk at time zero, starts
// reconstruction at bandwidthMBps into the selected target, and replays
// the trace concurrently. The returned results carry the user-visible
// response times during recovery — recording stops when the rebuild
// completes — plus the rebuild duration. It runs on the same driver as
// Replay, with the member loss scripted instead of drawn from a fault
// plan, so a config carrying an enabled Config.Fault or a
// Config.PowerLossAtMs cut is rejected: run those through Replay.
//
// Like Replay, call it once per System.
func (s *System) ReplayDuringRebuild(tr Trace, failDisk int, bandwidthMBps float64, target RebuildTarget) (*Results, error) {
	if s.cfg.Fault.Enabled() || s.cfg.PowerLossAtMs > 0 {
		return nil, fmt.Errorf("gcsteering: ReplayDuringRebuild scripts its own member loss; run a config with a fault plan or a power cut through Replay")
	}
	if err := s.begin(tr); err != nil {
		return nil, err
	}
	loss := func() error { return s.loseMember(failDisk, bandwidthMBps, target) }
	if err := s.drive(tr, loss, 0); err != nil {
		return nil, err
	}
	res := s.results()
	res.RebuildDuration = s.rebuildDuration
	return res, nil
}

// loseMember is ReplayDuringRebuild's scripted failure: member failDisk is
// lost now and reconstructed at bandwidthMBps into target, through the
// same sink factory and lifecycle hooks the fault controller drives.
// Recording stops when the rebuild completes.
func (s *System) loseMember(failDisk int, bandwidthMBps float64, target RebuildTarget) error {
	if err := s.arr.FailDisk(failDisk); err != nil {
		return err
	}
	var spare raid.Disk
	if target == RebuildToSpare {
		d, err := s.ensureSpare(s.cfg.Seed + 13)
		if err != nil {
			return err
		}
		spare = d
	}
	sink, err := s.rebuildSink(target, failDisk, spare)
	if err != nil {
		return err
	}
	rb, err := rebuild.New(s.eng, s.arr, sink, bandwidthMBps, s.cfg.Flash.PageSize)
	if err != nil {
		return err
	}
	rb.Trace = s.trace
	start := s.eng.Now()
	s.memberLost(start, failDisk)
	rb.OnComplete = func(now sim.Time) {
		s.rebuildDuration = now - start
		// Stop recording: Fig. 11 reports the response time *during* the
		// reconstruction, not the quiet period after it.
		s.measuring = false
		s.memberRepaired(now, failDisk)
	}
	// §III-D case ②: when the staging space acts as the replacement,
	// previously redirected write data is reclaimed back before the
	// reconstruction starts.
	if target != RebuildToReserved || s.steer == nil || s.steer.DTable().WriteLen() == 0 {
		s.rebuildStarted(start, failDisk)
		rb.Start(start)
		return nil
	}
	s.steer.DrainAll(start)
	var await func(now sim.Time)
	await = func(now sim.Time) {
		if s.steer.Draining() {
			s.eng.After(sim.Millisecond, await)
			return
		}
		s.rebuildStarted(now, failDisk)
		rb.Start(now)
	}
	s.eng.Defer(await)
	return nil
}

// armFaults builds, wires and starts the fault controller for the
// Config's plan.
func (s *System) armFaults() error {
	ctl, err := fault.NewController(s.eng, s.arr, s.devs, s.cfg.Fault.plan(s.cfg.Seed), s.cfg.Flash.PageSize)
	if err != nil {
		return err
	}
	ctl.Trace = s.trace
	// Each failure gets a fresh replacement SSD, so repeated failures
	// rebuild onto clean devices.
	ctl.SinkFor = func(now sim.Time, failDisk int) (rebuild.Sink, raid.Disk, error) {
		repl, err := s.newReplacement()
		if err != nil {
			return nil, nil, err
		}
		sink, err := s.rebuildSink(s.cfg.Fault.RebuildTarget, failDisk, repl)
		return sink, repl, err
	}
	ctl.OnFail = s.memberLost
	ctl.OnRebuildStart = s.rebuildStarted
	ctl.OnRepair = s.memberRepaired
	s.faults = ctl
	ctl.Start()
	return nil
}

// rebuildSink builds the sink reconstruction of failDisk writes into: the
// spare disk for RebuildToSpare, or the survivors' rebuild reserve for
// RebuildToReserved. In the reserved case a fault-plan replacement still
// fills the failed slot, so the array is redundant again as soon as the
// parallel writes finish (the window-of-vulnerability endpoint); migrating
// the data back onto the replacement happens off the critical path and is
// not modelled.
func (s *System) rebuildSink(target RebuildTarget, failDisk int, spare raid.Disk) (rebuild.Sink, error) {
	switch target {
	case RebuildToSpare:
		return &rebuild.SpareSink{Disk: spare}, nil
	case RebuildToReserved:
		var survivors []raid.Disk
		for d, disk := range s.disks {
			if s.arr.Alive(d) && d != failDisk {
				survivors = append(survivors, disk)
			}
		}
		reserve := s.rebuildReservePages()
		if reserve < s.arr.Layout().UnitPages {
			return nil, fmt.Errorf("gcsteering: no reserved space for parallel rebuild (configure reserved staging with a large enough ReservedFrac)")
		}
		return rebuild.NewReservedSink(survivors, s.cfg.Flash.LogicalPages()-reserve, reserve)
	default:
		return nil, fmt.Errorf("gcsteering: unknown rebuild target %v", target)
	}
}

// memberLost, rebuildStarted and memberRepaired keep the busy log, the
// health monitor and the steering controller in step with a member's
// failure-to-repair lifecycle, whether the fault controller or
// ReplayDuringRebuild drives it.
func (s *System) memberLost(now sim.Time, disk int) {
	if s.busy != nil {
		// The busy window opens at the loss, not the rebuild start: the
		// array serves degraded reads for the whole failure-to-repair
		// span, which is exactly the window cluster routing must avoid.
		s.busy.note(BusyRebuild, disk, now, true)
	}
	if s.health != nil {
		// A dead disk is the array's problem, not the breaker's: clear
		// any open quarantine so reinstatement probes stop.
		s.health.Reset(now, disk)
	}
	if s.steer == nil {
		return
	}
	s.steer.SetFailedHome(disk)
	if s.cfg.Staging == StagingReserved {
		// The failed member's staged copies are gone with it.
		s.steer.Staging().SetUnavailable(disk)
		s.steer.DropStagedOn(int32(disk))
	}
}

func (s *System) rebuildStarted(now sim.Time, _ int) {
	if s.steer != nil {
		s.steer.SetRebuilding(now, true)
	}
}

func (s *System) memberRepaired(now sim.Time, disk int) {
	if s.busy != nil {
		s.busy.note(BusyRebuild, disk, now, false)
	}
	if s.steer != nil {
		s.steer.Staging().SetUnavailable(-1)
		s.steer.SetFailedHome(-1)
		s.steer.SetRebuilding(now, false)
	}
}

// newReplacement creates a fresh SSD to take over a failed slot.
func (s *System) newReplacement() (*ssd.Device, error) {
	// IDs continue past the members and the optional dedicated spare.
	id := s.cfg.Disks + 1 + s.nrepl
	repl, err := ssd.New(id, s.eng, s.cfg.deviceConfig())
	if err != nil {
		return nil, err
	}
	repl.Trace = s.trace
	s.nrepl++
	return repl, nil
}

// Now returns the engine clock (mainly for tests and custom drivers).
func (s *System) Now() Time { return s.eng.Now() }

// Events returns how many engine events have fired so far — the
// simulator's unit of work, which the benchmark emitter divides by wall
// time to report events/sec.
func (s *System) Events() uint64 { return s.eng.Fired() }

// ObserveRequests installs fn, invoked once per submitted request as it
// settles: seq is the request's submission index (0-based, in trace
// order; a power-loss replay keeps the trace numbering across the
// remount, and requests lost in flight at the cut never settle), latNs
// the user-visible response time in nanoseconds, and rejected marks
// requests shed by admission control (their latNs is 0). The cluster
// layer uses it to attribute shard latencies back to tenants. Call before
// Replay; a nil fn removes the hook.
func (s *System) ObserveRequests(fn func(seq int64, latNs int64, rejected bool)) {
	s.onRequest = fn
}

// busyLog accumulates BusyInterval windows from the GC hub, the health
// monitor, and the rebuild lifecycle. It is driven synchronously by the
// single-threaded engine, so interval order is deterministic. Opening an
// already-open (kind, dev) slot or closing a closed one is a no-op, which
// lets the failure and rebuild-start hooks both assert the same window.
type busyLog struct {
	intervals []BusyInterval
	open      []BusyInterval // End unset while the window is open
}

func newBusyLog(disks int) *busyLog {
	return &busyLog{open: make([]BusyInterval, 0, disks+1)}
}

// note opens (active=true) or closes a busy window for (kind, dev).
func (b *busyLog) note(kind BusyKind, dev int, now sim.Time, active bool) {
	for i, w := range b.open {
		if w.Kind != kind || w.Dev != dev {
			continue
		}
		if active {
			return // already open
		}
		w.End = now
		b.intervals = append(b.intervals, w)
		b.open = append(b.open[:i], b.open[i+1:]...)
		return
	}
	if active {
		b.open = append(b.open, BusyInterval{Kind: kind, Dev: dev, Start: now})
	}
}

// finish closes every still-open window at the run end. Idempotent.
func (b *busyLog) finish(now sim.Time) {
	for _, w := range b.open {
		w.End = now
		b.intervals = append(b.intervals, w)
	}
	b.open = b.open[:0]
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
