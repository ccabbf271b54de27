package flash

import (
	"math/rand"
	"testing"
)

func testGeom() Geometry {
	return Geometry{
		PageSize:      4096,
		PagesPerBlock: 32,
		Blocks:        64,
		Channels:      4,
		OverProvision: 0.20,
	}
}

func mustFTL(t *testing.T, g Geometry) *FTL {
	t.Helper()
	f, err := NewFTL(g)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := []Geometry{
		{PageSize: 0, PagesPerBlock: 32, Blocks: 64, Channels: 4, OverProvision: 0.2},
		{PageSize: 4096, PagesPerBlock: 0, Blocks: 64, Channels: 4, OverProvision: 0.2},
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 0, Channels: 4, OverProvision: 0.2},
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 64, Channels: 0, OverProvision: 0.2},
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 63, Channels: 4, OverProvision: 0.2},  // not divisible
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 64, Channels: 4, OverProvision: 0},    // no spare
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 64, Channels: 4, OverProvision: 0.6},  // absurd spare
		{PageSize: 4096, PagesPerBlock: 32, Blocks: 64, Channels: 32, OverProvision: 0.2}, // < 2 spare/chan
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: geometry %+v unexpectedly valid", i, g)
		}
	}
}

func TestGeometryDerivedSizes(t *testing.T) {
	g := testGeom()
	if g.PhysPages() != 64*32 {
		t.Fatalf("PhysPages = %d", g.PhysPages())
	}
	lp := g.LogicalPages()
	if lp%g.PagesPerBlock != 0 {
		t.Fatalf("LogicalPages %d not block aligned", lp)
	}
	if lp >= g.PhysPages() {
		t.Fatalf("LogicalPages %d >= PhysPages %d", lp, g.PhysPages())
	}
	if g.LogicalBytes() != int64(lp)*4096 {
		t.Fatalf("LogicalBytes = %d", g.LogicalBytes())
	}
	if g.PageChannel(33) != g.BlockChannel(1) {
		t.Fatal("PageChannel disagrees with BlockChannel")
	}
}

func TestFreshFTL(t *testing.T) {
	f := mustFTL(t, testGeom())
	if f.FreeBlocks() != 64 {
		t.Fatalf("FreeBlocks = %d, want 64", f.FreeBlocks())
	}
	if f.MappedPages() != 0 {
		t.Fatalf("MappedPages = %d", f.MappedPages())
	}
	if f.Lookup(0) != -1 {
		t.Fatal("fresh FTL has a mapping")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadBack(t *testing.T) {
	f := mustFTL(t, testGeom())
	p1 := f.Write(10)
	if got := f.Lookup(10); got != p1 {
		t.Fatalf("Lookup(10) = %d, want %d", got, p1)
	}
	p2 := f.Write(10) // overwrite relocates
	if p2 == p1 {
		t.Fatal("overwrite reused the same physical page")
	}
	if got := f.Lookup(10); got != p2 {
		t.Fatalf("Lookup after overwrite = %d, want %d", got, p2)
	}
	if f.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", f.MappedPages())
	}
	if f.HostWrites() != 2 {
		t.Fatalf("HostWrites = %d, want 2", f.HostWrites())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWritesStripeAcrossChannels(t *testing.T) {
	g := testGeom()
	f := mustFTL(t, g)
	seen := make(map[int]bool)
	for lpn := 0; lpn < g.Channels; lpn++ {
		seen[g.PageChannel(f.Write(lpn))] = true
	}
	if len(seen) != g.Channels {
		t.Fatalf("first %d writes hit %d channels, want all %d", g.Channels, len(seen), g.Channels)
	}
}

func TestTrim(t *testing.T) {
	f := mustFTL(t, testGeom())
	f.Write(5)
	f.Trim(5)
	if f.Lookup(5) != -1 {
		t.Fatal("Trim left a mapping")
	}
	if f.MappedPages() != 0 {
		t.Fatalf("MappedPages = %d", f.MappedPages())
	}
	f.Trim(5) // trimming an unmapped page is a no-op
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLPNBoundsPanic(t *testing.T) {
	f := mustFTL(t, testGeom())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range lpn did not panic")
		}
	}()
	f.Write(f.Geometry().LogicalPages())
}

func fillSequential(f *FTL) {
	for lpn := 0; lpn < f.Geometry().LogicalPages(); lpn++ {
		f.Write(lpn)
	}
}

func TestFillToCapacity(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	if f.MappedPages() != f.Geometry().LogicalPages() {
		t.Fatalf("MappedPages = %d, want %d", f.MappedPages(), f.Geometry().LogicalPages())
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.FreeBlocks() > f.Geometry().Blocks-f.Geometry().LogicalPages()/f.Geometry().PagesPerBlock {
		t.Fatalf("FreeBlocks = %d after full fill", f.FreeBlocks())
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(1))
	// Random overwrites shrink free space until GC is needed, then GC must
	// restore the target.
	low, target := 2, 6
	episodes := 0
	for i := 0; i < 20000; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if f.NeedGC(low) {
			plan := f.CollectUntil(target, 0)
			episodes++
			if plan.Empty() {
				t.Fatal("GC needed but plan empty")
			}
			if f.FreeBlocks() < target {
				t.Fatalf("after GC FreeBlocks = %d, want >= %d", f.FreeBlocks(), target)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("after GC episode %d: %v", episodes, err)
			}
		}
	}
	if episodes == 0 {
		t.Fatal("workload never triggered GC; test is vacuous")
	}
	if f.GCWrites() == 0 || f.Erases() == 0 {
		t.Fatalf("GC stats empty: gcWrites=%d erases=%d", f.GCWrites(), f.Erases())
	}
	if wa := f.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("write amplification %v, want > 1 under random overwrites", wa)
	}
}

func TestGCPreservesMappings(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(2))
	// Track a shadow of which LPNs exist; all must remain readable with
	// consistent translations after GC.
	for i := 0; i < 5000; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if f.NeedGC(2) {
			f.CollectUntil(6, 0)
		}
	}
	for lpn := 0; lpn < f.Geometry().LogicalPages(); lpn++ {
		ppn := f.Lookup(lpn)
		if ppn < 0 {
			t.Fatalf("lpn %d lost its mapping", lpn)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGCMovesReflectValidPages(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if !f.NeedGC(2) {
			continue
		}
		beforeMoves, beforeErases := f.GCWrites(), f.Erases()
		plan := f.CollectUntil(6, 0)
		if int64(plan.PagesMoved) != f.GCWrites()-beforeMoves {
			t.Fatalf("plan.PagesMoved=%d, gcWrites delta=%d",
				plan.PagesMoved, f.GCWrites()-beforeMoves)
		}
		if int64(plan.Erases) != f.Erases()-beforeErases {
			t.Fatalf("plan.Erases=%d, erase delta=%d", plan.Erases, f.Erases()-beforeErases)
		}
		moved := 0
		for i, v := range plan.Victims {
			if f.Geometry().BlockChannel(v.Block) != v.Channel {
				t.Fatalf("victim %d channel mismatch", v.Block)
			}
			// Every page read out of a victim is programmed exactly once,
			// on some channel.
			programs := 0
			for _, n := range plan.Programs(i) {
				programs += int(n)
			}
			if programs != v.Moved {
				t.Fatalf("victim %d: %d programs for %d moved pages", v.Block, programs, v.Moved)
			}
			moved += v.Moved
		}
		if int64(moved) != f.GCWrites()-beforeMoves {
			t.Fatalf("sum of victim Moved=%d, gcWrites delta=%d", moved, f.GCWrites()-beforeMoves)
		}
	}
}

// TestCollectUntilZeroAllocAfterWarmup pins the reused plan arenas: once
// they have grown to an episode's size, a GC episode allocates nothing.
// Rebuilding the plan per episode would fail it.
func TestCollectUntilZeroAllocAfterWarmup(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(5))
	lp := f.Geometry().LogicalPages()
	churn := func() {
		for !f.NeedGC(2) {
			f.Write(rng.Intn(lp))
		}
	}
	for i := 0; i < 20; i++ { // warm the arenas
		churn()
		f.CollectUntil(8, 0)
	}
	victims := 0
	allocs := testing.AllocsPerRun(50, func() {
		churn()
		victims += len(f.CollectUntil(8, 0).Victims)
	})
	if victims == 0 {
		t.Fatal("precondition: no episode collected anything")
	}
	if allocs != 0 {
		t.Fatalf("CollectUntil allocates %.1f times per episode after warm-up, want 0", allocs)
	}
}

func TestForcedGCCollectsEvenWhenNotNeeded(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	// Overwrite a little so some blocks have invalid pages but free space is
	// still plentiful.
	for lpn := 0; lpn < 100; lpn++ {
		f.Write(lpn)
	}
	if f.NeedGC(2) {
		t.Fatal("precondition: GC should not be needed yet")
	}
	plan := f.CollectUntil(0, 1) // minVictims=1 forces a collection
	if plan.Erases < 1 {
		t.Fatal("forced GC did not erase any block")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForcedGCNoGarbageIsNoop(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f) // sequential fill: every full block is 100% valid
	plan := f.CollectUntil(0, 1)
	if !plan.Empty() {
		t.Fatalf("GC collected %d victims with zero invalid pages", plan.Erases)
	}
}

func TestEraseCountsAdvance(t *testing.T) {
	f := mustFTL(t, testGeom())
	fillSequential(f)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30000; i++ {
		f.Write(rng.Intn(f.Geometry().LogicalPages()))
		if f.NeedGC(2) {
			f.CollectUntil(6, 0)
		}
	}
	total := 0
	for b := 0; b < f.Geometry().Blocks; b++ {
		total += f.BlockEraseCount(b)
	}
	if int64(total) != f.Erases() {
		t.Fatalf("sum of per-block erase counts %d != Erases() %d", total, f.Erases())
	}
}

func BenchmarkFTLRandomOverwriteWithGC(b *testing.B) {
	g := DefaultGeometry()
	f, err := NewFTL(g)
	if err != nil {
		b.Fatal(err)
	}
	for lpn := 0; lpn < g.LogicalPages(); lpn++ {
		f.Write(lpn)
	}
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Write(rng.Intn(g.LogicalPages()))
		if f.NeedGC(8) {
			f.CollectUntil(16, 0)
		}
	}
	b.ReportMetric(f.WriteAmplification(), "write-amp")
}

// TestOneActiveBlockPerChannel pins the single write stream: host writes
// and GC relocations share one active block per channel, so no channel
// ever has two blocks open for programming.
func TestOneActiveBlockPerChannel(t *testing.T) {
	g := testGeom()
	f := mustFTL(t, g)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 20000; i++ {
		f.Write(rng.Intn(g.LogicalPages()))
		if f.NeedGC(2) {
			f.CollectUntil(6, 0)
		}
		if i%500 != 0 {
			continue
		}
		open := make([]int, g.Channels)
		for b := range f.blocks {
			if f.blocks[b].state != blockActive {
				continue
			}
			c := g.BlockChannel(b)
			if open[c]++; open[c] > 1 {
				t.Fatalf("write %d: channel %d has %d active blocks", i, c, open[c])
			}
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
