package core

import (
	"testing"

	"gcsteering/internal/sim"
)

// stagedEntries builds a rig with one hot-read entry and one mirrored write
// entry, returning their keys.
func stagedEntries(t *testing.T) (*rig, PageKey, PageKey) {
	t.Helper()
	r := newRig(t, "reserved")
	// Hot-read entry: read the page three times.
	for i := 0; i < 3; i++ {
		r.arr.Read(r.eng.Now(), 0, 1, nil)
		r.eng.RunFor(sim.Millisecond)
	}
	d0, p0 := r.homeOf(0)
	readKey := PageKey{Disk: int32(d0), Page: int32(p0)}
	if e, ok := r.st.DTable().Get(readKey); !ok || e.Write {
		t.Fatal("precondition: hot-read entry missing")
	}
	// Mirrored write entry: write another page while its home collects.
	page := r.lay.UnitPages * r.lay.DataDisks() * 3 // stripe 3, unit 0
	d1, p1 := r.homeOf(page)
	r.devs[d1].ForceGC(r.eng.Now())
	r.arr.Write(r.eng.Now(), page, 1, nil)
	r.eng.RunFor(sim.Millisecond)
	writeKey := PageKey{Disk: int32(d1), Page: int32(p1)}
	if e, ok := r.st.DTable().Get(writeKey); !ok || !e.Write || !e.Loc.Mirrored() {
		t.Fatal("precondition: mirrored write entry missing")
	}
	return r, readKey, writeKey
}

func TestDropStagedOnRemovesReadCopies(t *testing.T) {
	r, readKey, _ := stagedEntries(t)
	e, _ := r.st.DTable().Get(readKey)
	failed := e.Loc.Dev0
	r.st.DropStagedOn(failed)
	if _, ok := r.st.DTable().Get(readKey); ok {
		t.Fatal("hot-read copy on the failed member survived")
	}
}

func TestDropStagedOnKeepsSurvivingMirror(t *testing.T) {
	r, _, writeKey := stagedEntries(t)
	e, _ := r.st.DTable().Get(writeKey)
	failed := e.Loc.Dev0
	survivor, survivorPage := e.Loc.Dev1, e.Loc.Page1
	r.st.DropStagedOn(failed)
	got, ok := r.st.DTable().Get(writeKey)
	if !ok || !got.Write {
		t.Fatal("write entry lost with a surviving mirror")
	}
	if got.Loc.Mirrored() {
		t.Fatal("entry still claims a mirror on the failed member")
	}
	if got.Loc.Dev0 != survivor || got.Loc.Page0 != survivorPage {
		t.Fatalf("entry points at %+v, want the survivor (%d,%d)", got.Loc, survivor, survivorPage)
	}
}

func TestDropStagedOnUntouchedEntriesSurvive(t *testing.T) {
	r, readKey, writeKey := stagedEntries(t)
	re, _ := r.st.DTable().Get(readKey)
	we, _ := r.st.DTable().Get(writeKey)
	// Fail a member that hosts neither copy.
	hosts := map[int32]bool{re.Loc.Dev0: true, we.Loc.Dev0: true, we.Loc.Dev1: true}
	var other int32 = -1
	for d := int32(0); d < int32(len(r.devs)); d++ {
		if !hosts[d] {
			other = d
			break
		}
	}
	if other < 0 {
		t.Skip("all members host copies in this layout")
	}
	r.st.DropStagedOn(other)
	if _, ok := r.st.DTable().Get(readKey); !ok {
		t.Fatal("unrelated read entry dropped")
	}
	if _, ok := r.st.DTable().Get(writeKey); !ok {
		t.Fatal("unrelated write entry dropped")
	}
}

func TestReservedReadAvoidsUnavailableMember(t *testing.T) {
	r, _, writeKey := stagedEntries(t)
	e, _ := r.st.DTable().Get(writeKey)
	// Mark the primary copy's member unavailable; a staged read must use
	// the mirror.
	r.st.Staging().SetUnavailable(int(e.Loc.Dev0))
	before := r.recs[e.Loc.Dev0].reads[int(e.Loc.Page0)]
	r.st.Staging().Read(r.eng.Now(), e.Loc, nil)
	r.eng.Run()
	if r.recs[e.Loc.Dev0].reads[int(e.Loc.Page0)] != before {
		t.Fatal("staged read touched the unavailable member")
	}
	if r.recs[e.Loc.Dev1].reads[int(e.Loc.Page1)] == 0 {
		t.Fatal("mirror copy not read")
	}
	r.st.Staging().SetUnavailable(-1)
}
