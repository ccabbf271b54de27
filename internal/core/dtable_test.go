package core

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// testDisks and testPages size the standalone tables like the steering
// rig's reserved-staging array: 5 members of 1,296 home pages.
const (
	testDisks = 5
	testPages = 1296
)

func k(d, p int32) PageKey { return PageKey{Disk: d, Page: p} }

func TestDTableBasics(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	if dt.Len() != 0 || dt.WriteLen() != 0 {
		t.Fatal("fresh table not empty")
	}
	if _, ok := dt.Get(k(0, 0)); ok {
		t.Fatal("phantom entry")
	}
	loc := StageLoc{Dev0: 1, Page0: 100, Dev1: NoMirror}
	e := dt.Put(k(0, 5), loc, true)
	if e.Gen != 1 {
		t.Fatalf("first Gen = %d", e.Gen)
	}
	got, ok := dt.Get(k(0, 5))
	if !ok || got.Loc != loc || !got.Write {
		t.Fatalf("Get = %+v ok=%v", got, ok)
	}
	if dt.Len() != 1 || dt.WriteLen() != 1 {
		t.Fatalf("Len=%d WriteLen=%d", dt.Len(), dt.WriteLen())
	}
}

func TestDTableGenBumpsOnReplace(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	dt.Put(k(0, 5), StageLoc{Dev0: 1, Page0: 1, Dev1: NoMirror}, false)
	e := dt.Put(k(0, 5), StageLoc{Dev0: 2, Page0: 2, Dev1: NoMirror}, true)
	if e.Gen != 2 {
		t.Fatalf("Gen = %d after replace", e.Gen)
	}
	if dt.Len() != 1 || dt.WriteLen() != 1 {
		t.Fatalf("Len=%d WriteLen=%d", dt.Len(), dt.WriteLen())
	}
	// Flag transitions must keep WriteLen consistent.
	dt.Put(k(0, 5), StageLoc{Dev0: 3, Page0: 3, Dev1: NoMirror}, false)
	if dt.WriteLen() != 0 {
		t.Fatalf("WriteLen = %d after write->read transition", dt.WriteLen())
	}
}

func TestDTableDelete(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	dt.Put(k(1, 2), StageLoc{Dev1: NoMirror}, true)
	dt.Delete(k(1, 2))
	if dt.Len() != 0 || dt.WriteLen() != 0 {
		t.Fatal("delete did not clear")
	}
	dt.Delete(k(1, 2)) // absent delete is a no-op
}

func TestWriteRunsMerging(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	loc := StageLoc{Dev1: NoMirror}
	// Disk 0: pages 10,11,12 and 20. Disk 1: page 5. A read entry at 13
	// must not extend the run.
	for _, p := range []int32{12, 10, 11, 20} {
		dt.Put(k(0, p), loc, true)
	}
	dt.Put(k(0, 13), loc, false)
	dt.Put(k(1, 5), loc, true)

	runs := dt.WriteRunsFor(0)
	if len(runs) != 2 {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].Page != 10 || runs[0].Pages != 3 {
		t.Fatalf("first run %+v", runs[0])
	}
	if runs[1].Page != 20 || runs[1].Pages != 1 {
		t.Fatalf("second run %+v", runs[1])
	}
	if got := dt.WriteRunsFor(2); got != nil {
		t.Fatalf("runs for untouched disk: %+v", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	dt.Put(k(0, 1), StageLoc{Dev0: 1, Page0: 11, Dev1: 2, Page1: 22}, true)
	dt.Put(k(3, 4), StageLoc{Dev0: 0, Page0: 7, Dev1: NoMirror}, false)
	blob, err := dt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewDTable(testDisks, testPages)
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 || restored.WriteLen() != 1 {
		t.Fatalf("restored Len=%d WriteLen=%d", restored.Len(), restored.WriteLen())
	}
	e, ok := restored.Get(k(0, 1))
	if !ok || !e.Loc.Mirrored() || e.Loc.Page1 != 22 || !e.Write {
		t.Fatalf("restored entry %+v ok=%v", e, ok)
	}
	if err := restored.Restore([]byte("garbage")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}

func TestForEachVisitsAll(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	dt.Put(k(0, 1), StageLoc{Dev1: NoMirror}, true)
	dt.Put(k(0, 2), StageLoc{Dev1: NoMirror}, false)
	n := 0
	dt.ForEach(func(PageKey, Entry) { n++ })
	if n != 2 {
		t.Fatalf("visited %d", n)
	}
}

// TestForEachOrderAndDeleteDuringWalk pins ForEach's contract: entries
// come in (disk, page) order whatever the insertion order, and an entry
// deleted by the callback before the walk reaches it is not visited (the
// map-iteration rule the steering walks rely on).
func TestForEachOrderAndDeleteDuringWalk(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	loc := StageLoc{Dev1: NoMirror}
	for _, key := range []PageKey{k(2, 0), k(0, 700), k(0, 5), k(0, 3), k(4, testPages-1), k(0, 64), k(2, 63)} {
		dt.Put(key, loc, true)
	}
	var got []PageKey
	dt.ForEach(func(key PageKey, _ Entry) { got = append(got, key) })
	want := []PageKey{k(0, 3), k(0, 5), k(0, 64), k(0, 700), k(2, 0), k(2, 63), k(4, testPages-1)}
	if !equalKeys(got, want) {
		t.Fatalf("ForEach order %v, want %v", got, want)
	}

	// Visiting (0,3) deletes itself, a later key in the same bitset word
	// and keys in later words; visiting (2,0) rewrites itself in place.
	got = got[:0]
	dt.ForEach(func(key PageKey, e Entry) {
		got = append(got, key)
		switch key {
		case k(0, 3):
			dt.Delete(k(0, 3))
			dt.Delete(k(0, 5))
			dt.Delete(k(0, 64))
			dt.Delete(k(2, 63))
		case k(2, 0):
			dt.Put(key, StageLoc{Dev0: 9, Dev1: NoMirror}, false)
		}
	})
	want = []PageKey{k(0, 3), k(0, 700), k(2, 0), k(4, testPages-1)}
	if !equalKeys(got, want) {
		t.Fatalf("ForEach with deletes visited %v, want %v", got, want)
	}
	if dt.Len() != 3 || dt.WriteLen() != 2 || dt.WriteLenOn(2) != 0 {
		t.Fatalf("Len=%d WriteLen=%d WriteLenOn(2)=%d after walk", dt.Len(), dt.WriteLen(), dt.WriteLenOn(2))
	}
}

func equalKeys(a, b []PageKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDTableKeyRange: a key outside [0,disks)×[0,pages) is a miss for Get
// and Delete, a panic for Put, and an error for Restore that leaves the
// table unchanged.
func TestDTableKeyRange(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	dt.Put(k(1, 1), StageLoc{Dev1: NoMirror}, true)
	for _, key := range []PageKey{k(testDisks, 0), k(0, testPages), k(-1, 0), k(0, -1), k(9, 1<<30)} {
		if _, ok := dt.Get(key); ok {
			t.Fatalf("Get(%v) hit", key)
		}
		dt.Delete(key)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Put(%v) did not panic", key)
				}
			}()
			dt.Put(key, StageLoc{Dev1: NoMirror}, true)
		}()
	}
	blob := encodeRecords(t, []snapshotRecord{
		{Key: k(0, 5), Entry: Entry{Loc: StageLoc{Dev1: NoMirror}, Write: true, Gen: 1}},
		{Key: k(9, 1<<30), Entry: Entry{Loc: StageLoc{Dev1: NoMirror}, Write: true, Gen: 1}},
	})
	if err := dt.Restore(blob); err == nil {
		t.Fatal("snapshot keyed outside the array restored")
	}
	if _, ok := dt.Get(k(1, 1)); !ok || dt.Len() != 1 || dt.WriteLen() != 1 {
		t.Fatalf("rejected restore changed the table: Len=%d WriteLen=%d", dt.Len(), dt.WriteLen())
	}
}

// encodeRecords builds a snapshot blob from raw records, bypassing Put's
// key check, as a corrupt or foreign NVRAM image would.
func encodeRecords(t *testing.T, recs []snapshotRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDTableHotPathZeroAlloc pins the bitset front of D_Table: a Get or
// Delete that misses and the reclaimer's FirstWriteRunFor allocate
// nothing.
func TestDTableHotPathZeroAlloc(t *testing.T) {
	dt := NewDTable(testDisks, testPages)
	for p := int32(100); p < 140; p++ {
		dt.Put(k(1, p), StageLoc{Dev1: NoMirror}, p%7 != 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for p := int32(0); p < 100; p++ {
			if _, ok := dt.Get(k(2, p)); ok {
				t.Fatal("phantom entry")
			}
			dt.Delete(k(3, p))
		}
		if run, ok := dt.FirstWriteRunFor(1); !ok || run.Page != 100 || run.Pages != 5 {
			t.Fatalf("FirstWriteRunFor = %+v, %v", run, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("D_Table miss path allocates %.1f times per run, want 0", allocs)
	}
}

// TestRLRURemoveUntrackedZeroAlloc: the write path removes every written
// page from R_LRU, and almost none are tracked; that Remove allocates
// nothing.
func TestRLRURemoveUntrackedZeroAlloc(t *testing.T) {
	r := NewRLRU(16, testPages)
	for p := int32(0); p < 16; p++ {
		r.Touch(p)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for p := int32(100); p < 200; p++ {
			r.Remove(p)
		}
	})
	if allocs != 0 {
		t.Fatalf("RLRU.Remove of untracked pages allocates %.1f times per run, want 0", allocs)
	}
	if r.Len() != 16 {
		t.Fatalf("Len = %d after removing untracked pages", r.Len())
	}
}

func TestStageLocMirrored(t *testing.T) {
	if (StageLoc{Dev1: NoMirror}).Mirrored() {
		t.Fatal("single-copy loc reported mirrored")
	}
	if !(StageLoc{Dev1: 3}).Mirrored() {
		t.Fatal("mirrored loc not reported")
	}
}

func TestRLRU(t *testing.T) {
	r := NewRLRU(3, testPages)
	if r.Cap() != 3 {
		t.Fatal("cap")
	}
	if r.Touch(1) != 0 {
		t.Fatal("first touch reported prior hits")
	}
	if r.Touch(1) != 1 {
		t.Fatal("second touch should report one prior hit")
	}
	if r.Touch(1) != 2 {
		t.Fatal("third touch should report two prior hits")
	}
	r.Touch(2)
	r.Touch(3)
	r.Touch(4) // evicts 1 (2 is next-oldest after 1's promotion... order: 1 promoted, then 2,3,4 -> evict 1)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Contains(1) {
		t.Fatal("oldest entry not evicted")
	}
	if !r.Contains(4) || !r.Contains(3) || !r.Contains(2) {
		t.Fatal("recent entries missing")
	}
	r.Remove(3)
	if r.Contains(3) || r.Len() != 2 {
		t.Fatal("Remove failed")
	}
	r.Remove(3) // absent remove is a no-op
}

func TestRLRUEvictionOrder(t *testing.T) {
	r := NewRLRU(2, testPages)
	r.Touch(1)
	r.Touch(2)
	r.Touch(1) // promote 1; 2 becomes LRU
	r.Touch(3) // evicts 2
	if r.Contains(2) || !r.Contains(1) || !r.Contains(3) {
		t.Fatal("LRU order broken")
	}
}

func TestRLRUMinCapacity(t *testing.T) {
	r := NewRLRU(0, testPages)
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, want clamped to 1", r.Cap())
	}
}
