package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// TestQuickSteeringInvariants drives random read/write traffic with random
// forced GC episodes through a steered array and checks the structural
// safety properties of the redirect machinery after every step and at
// quiescence:
//
//  1. No two live D_Table entries share a staging slot (no aliasing).
//  2. Reads of pages with live entries never touch the home page
//     (read-your-writes through the staging space).
//  3. After a full drain, no write entries remain and every staging write
//     slot is back in the pool (no slot leaks).
func TestQuickSteeringInvariants(t *testing.T) {
	type spec struct {
		Seed int64
		Ops  uint16
	}
	f := func(sp spec) bool {
		r := newRig(t, "reserved")
		rng := rand.New(rand.NewSource(sp.Seed))
		total := r.lay.LogicalPages()
		ops := int(sp.Ops%600) + 50
		writeSlots := r.st.Staging().FreeWriteSlots()
		readSlots := r.st.Staging().FreeReadSlots()
		for i := 0; i < ops; i++ {
			now := r.eng.Now()
			switch rng.Intn(10) {
			case 0:
				r.devs[rng.Intn(len(r.devs))].ForceGC(now)
			case 1, 2, 3:
				p := rng.Intn(total)
				n := 1 + rng.Intn(min(total-p, 24))
				r.arr.Read(now, p, n, nil)
			default:
				p := rng.Intn(total)
				n := 1 + rng.Intn(min(total-p, 24))
				r.arr.Write(now, p, n, nil)
			}
			r.eng.RunFor(sim.Time(rng.Intn(1500)) * sim.Microsecond)

			// Invariant 1: staging locations are alias-free.
			if !stagingAliasFree(r.st.DTable()) {
				t.Log("staging aliasing detected")
				return false
			}
		}
		// Invariant 2 on a sample of staged pages.
		checked := 0
		r.st.DTable().ForEach(func(k PageKey, e Entry) {
			if checked >= 5 {
				return
			}
			checked++
			before := r.recs[k.Disk].reads[int(k.Page)]
			// Issue a raw sub-op read through the router.
			arrayPage := arrayPageOf(r.lay, int(k.Disk), int(k.Page))
			if arrayPage < 0 {
				return // reserved-region page; not addressable via the array
			}
			r.arr.Read(r.eng.Now(), arrayPage, 1, nil)
			r.eng.RunFor(50 * sim.Millisecond)
			if r.recs[k.Disk].reads[int(k.Page)] != before {
				t.Logf("staged page (%d,%d) read from home", k.Disk, k.Page)
				checked = 1 << 20 // flag failure
			}
		})
		if checked >= 1<<20 {
			return false
		}
		// Invariant 3: drain everything.
		r.eng.Run()
		r.st.DrainAll(r.eng.Now())
		r.eng.Run()
		if r.st.DTable().WriteLen() != 0 {
			t.Logf("%d write entries left after drain", r.st.DTable().WriteLen())
			return false
		}
		if got := r.st.Staging().FreeWriteSlots(); got != writeSlots {
			t.Logf("write slots leaked: %d != %d", got, writeSlots)
			return false
		}
		// Read slots may legitimately be in use by hot copies; they must
		// never exceed the initial pool.
		if got := r.st.Staging().FreeReadSlots(); got > readSlots {
			t.Logf("read slot pool grew: %d > %d", got, readSlots)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 12,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(spec{Seed: r.Int63(), Ops: uint16(r.Intn(1 << 16))})
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// stagingAliasFree verifies no two entries reference the same staging slot.
func stagingAliasFree(dt *DTable) bool {
	type slot struct{ dev, page int32 }
	seen := make(map[slot]bool)
	ok := true
	dt.ForEach(func(_ PageKey, e Entry) {
		for _, s := range []slot{{e.Loc.Dev0, e.Loc.Page0}, {e.Loc.Dev1, e.Loc.Page1}} {
			if s.dev == NoMirror {
				continue
			}
			if seen[s] {
				ok = false
			}
			seen[s] = true
		}
	})
	return ok
}

// arrayPageOf inverts raid.Layout.Map for data pages, returning -1 for
// disk pages outside the array's data area (parity units or the reserved
// staging region).
func arrayPageOf(lay raid.Layout, disk, page int) int {
	if page < 0 || page >= lay.DiskPages {
		return -1
	}
	stripe := page / lay.UnitPages
	idx := lay.DataIndex(stripe, disk)
	if idx < 0 {
		return -1
	}
	return (stripe*lay.DataDisks()+idx)*lay.UnitPages + page%lay.UnitPages
}
