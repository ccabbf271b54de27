package core

import (
	"strings"
	"testing"

	"gcsteering/internal/sim"
)

// TestCrashRecoveryRoundTrip models the paper's §III-E power-failure story:
// the D_Table snapshot taken "in NVRAM" is restored into a fresh steering
// controller over the same array, after which staged pages are still served
// from the staging space and the staged slots are not reallocated.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	r := newRig(t, "reserved")
	homeDisk, homePage := r.homeOf(0)
	r.devs[homeDisk].ForceGC(r.eng.Now())
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.RunFor(sim.Millisecond)
	key := PageKey{Disk: int32(homeDisk), Page: int32(homePage)}
	orig, ok := r.st.DTable().Get(key)
	if !ok {
		t.Fatal("precondition: staged entry missing")
	}
	blob, err := r.st.SnapshotDTable()
	if err != nil {
		t.Fatal(err)
	}

	// "Crash": build a fresh controller over the same devices and array
	// (the flash contents survive a power failure; the controller state
	// does not).
	fresh := New(r.eng, r.arr, r.st.Staging())
	// The staging slot is still held by the old controller's accounting;
	// free it to model the fresh pools a restarted controller starts from,
	// then restore, which must re-reserve it.
	r.st.Staging().Free(orig.Loc)
	if err := fresh.RestoreDTable(blob); err != nil {
		t.Fatal(err)
	}
	got, ok := fresh.DTable().Get(key)
	if !ok || got.Loc != orig.Loc || !got.Write {
		t.Fatalf("restored entry %+v ok=%v, want %+v", got, ok, orig)
	}
	// The restored slots must be reserved: allocating until exhaustion must
	// never hand out the restored location.
	for {
		loc, ok := fresh.Staging().AllocWrite(r.eng.Now(), -1, false)
		if !ok {
			break
		}
		if loc.Dev0 == orig.Loc.Dev0 && loc.Page0 == orig.Loc.Page0 {
			t.Fatal("restored slot handed out again")
		}
		if loc.Mirrored() && loc.Dev1 == orig.Loc.Dev1 && loc.Page1 == orig.Loc.Page1 {
			t.Fatal("restored mirror slot handed out again")
		}
	}
	// Reads through the recovered controller still dodge the home page.
	before := r.recs[homeDisk].reads[homePage]
	r.arr.Read(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	if r.recs[homeDisk].reads[homePage] != before {
		t.Fatal("read after recovery bypassed the staged copy")
	}
}

func TestRestoreRejectsInconsistentSnapshot(t *testing.T) {
	r := newRig(t, "reserved")
	// Craft a snapshot naming a slot that is currently allocated elsewhere.
	loc, ok := r.st.Staging().AllocWrite(r.eng.Now(), -1, false)
	if !ok {
		t.Fatal("alloc failed")
	}
	dt := NewDTable(testDisks, testPages)
	dt.Put(PageKey{Disk: 0, Page: 1}, loc, true)
	blob, err := dt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.st.RestoreDTable(blob); err == nil {
		t.Fatal("restore over an allocated slot accepted")
	}
	if err := r.st.RestoreDTable([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestReserveErrors(t *testing.T) {
	_, _, rs := reservedFixture(t, 3)
	loc, ok := rs.AllocWrite(0, -1, false)
	if !ok {
		t.Fatal("alloc failed")
	}
	if err := rs.Reserve(loc); err == nil {
		t.Fatal("reserving an allocated slot succeeded")
	}
	rs.Free(loc)
	if err := rs.Reserve(loc); err != nil {
		t.Fatalf("reserving a free slot failed: %v", err)
	}
	// A mirrored location whose second copy is taken reserves neither.
	rs.Free(loc)
	other, ok := rs.AllocWrite(0, -1, false)
	if !ok {
		t.Fatal("alloc failed")
	}
	half := StageLoc{Dev0: loc.Dev0, Page0: loc.Page0, Dev1: other.Dev1, Page1: other.Page1}
	free := rs.FreeWriteSlots()
	if err := rs.Reserve(half); err == nil {
		t.Fatal("reserving a half-allocated mirror succeeded")
	}
	if got := rs.FreeWriteSlots(); got != free {
		t.Fatalf("failed Reserve kept its first copy: %d free slots, want %d", got, free)
	}
}

// TestRejectedRestoreReleasesSlots: a snapshot whose lower key restores
// cleanly but whose higher keys name slots already in use is rejected,
// the error names the lowest failing key, and the slot reserved for the
// clean entry goes back to the pool (restores used to reserve in map
// order and keep whatever they had taken before the failure).
func TestRejectedRestoreReleasesSlots(t *testing.T) {
	r := newRig(t, "reserved")
	now := r.eng.Now()
	busy0, ok0 := r.st.Staging().AllocWrite(now, -1, false)
	busy1, ok1 := r.st.Staging().AllocWrite(now, -1, false)
	clean, ok2 := r.st.Staging().AllocWrite(now, -1, false)
	if !ok0 || !ok1 || !ok2 {
		t.Fatal("alloc failed")
	}
	r.st.Staging().Free(clean)
	blob := encodeRecords(t, []snapshotRecord{
		{Key: PageKey{Disk: 0, Page: 1}, Entry: Entry{Loc: clean, Write: true, Gen: 1}},
		{Key: PageKey{Disk: 0, Page: 2}, Entry: Entry{Loc: busy0, Write: true, Gen: 1}},
		{Key: PageKey{Disk: 3, Page: 0}, Entry: Entry{Loc: busy1, Write: true, Gen: 1}},
	})
	free := r.st.Staging().FreeWriteSlots()
	err := r.st.RestoreDTable(blob)
	if err == nil {
		t.Fatal("restore over allocated slots accepted")
	}
	if !strings.Contains(err.Error(), "entry (0,2)") {
		t.Fatalf("error %q does not name the lowest failing key (0,2)", err)
	}
	if got := r.st.Staging().FreeWriteSlots(); got != free {
		t.Fatalf("rejected restore leaked write slots: %d free, want %d", got, free)
	}
	if r.st.DTable().Len() != 0 {
		t.Fatalf("rejected restore replaced the table (%d entries)", r.st.DTable().Len())
	}
}

// TestRestoreRejectsKeyOutsideArray: a snapshot keyed outside the array
// used to restore, leaving an entry the reclaimer could never drain.
func TestRestoreRejectsKeyOutsideArray(t *testing.T) {
	r := newRig(t, "reserved")
	loc, ok := r.st.Staging().AllocWrite(r.eng.Now(), -1, false)
	if !ok {
		t.Fatal("alloc failed")
	}
	r.st.Staging().Free(loc)
	blob := encodeRecords(t, []snapshotRecord{
		{Key: PageKey{Disk: 9, Page: 1 << 30}, Entry: Entry{Loc: loc, Write: true, Gen: 1}},
	})
	free := r.st.Staging().FreeWriteSlots()
	if err := r.st.RestoreDTable(blob); err == nil {
		t.Fatal("snapshot keyed (9, 2^30) restored on a 5-disk array")
	}
	r.st.DrainAll(r.eng.Now())
	r.eng.Run()
	if r.st.Draining() || r.st.DTable().WriteLen() != 0 {
		t.Fatalf("Draining=%v WriteLen=%d after a rejected restore", r.st.Draining(), r.st.DTable().WriteLen())
	}
	if got := r.st.Staging().FreeWriteSlots(); got != free {
		t.Fatalf("rejected restore took write slots: %d free, want %d", got, free)
	}
}
