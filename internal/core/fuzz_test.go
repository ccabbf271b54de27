package core

import (
	"sort"
	"testing"
)

// FuzzDTable drives D_Table with a random mix of Put, Delete, Get,
// FirstWriteRunFor, WriteRunsFor, ForEach with deletes from inside the
// callback, and Snapshot→Restore, and checks every answer against a plain
// map. The geometry is small and not a multiple of 64 pages, so runs and
// walks cross bitset word boundaries and the partial last word.
func FuzzDTable(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 0, 0, 11, 1, 0, 0, 12, 1, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 10, 1, 0, 0, 11, 1, 0, 0, 12, 1, 5, 0, 0, 1})
	f.Add([]byte{0, 1, 63, 1, 0, 1, 64, 1, 0, 1, 65, 0, 4, 1, 0, 1, 5, 0, 1, 2})
	f.Add([]byte{0, 2, 129, 1, 0, 2, 0, 1, 6, 0, 0, 0, 1, 2, 0, 0, 3, 2, 1, 0})
	f.Add([]byte{0, 0, 5, 1, 0, 0, 6, 1, 0, 1, 7, 0, 5, 3, 1, 0, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const disks, pages = 3, 130
		dt := NewDTable(disks, pages)
		oracle := map[PageKey]Entry{}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		for len(data) > 0 {
			op, disk, page, arg := next()%7, int32(next()%(disks+1)), int32(next()%(pages+6)), next()
			key := PageKey{Disk: disk, Page: page}
			inRange := disk < disks && page < pages
			switch op {
			case 0: // Put
				if !inRange {
					continue
				}
				loc := StageLoc{Dev0: int32(arg), Page0: page, Dev1: NoMirror}
				got := dt.Put(key, loc, arg&1 == 1)
				want := Entry{Loc: loc, Write: arg&1 == 1, Gen: oracle[key].Gen + 1}
				oracle[key] = want
				if got != want {
					t.Fatalf("Put(%v) = %+v, want %+v", key, got, want)
				}
			case 1: // Delete
				dt.Delete(key)
				delete(oracle, key)
			case 2: // Get
				got, ok := dt.Get(key)
				want, wantOK := oracle[key]
				if got != want || ok != wantOK {
					t.Fatalf("Get(%v) = %+v,%v, want %+v,%v", key, got, ok, want, wantOK)
				}
			case 3: // FirstWriteRunFor
				got, ok := dt.FirstWriteRunFor(disk)
				runs := oracleRuns(oracle, disk)
				if ok != (len(runs) > 0) || (ok && got != runs[0]) {
					t.Fatalf("FirstWriteRunFor(%d) = %+v,%v, want %+v", disk, got, ok, runs)
				}
			case 4: // WriteRunsFor
				got := dt.WriteRunsFor(disk)
				want := oracleRuns(oracle, disk)
				if len(got) != len(want) {
					t.Fatalf("WriteRunsFor(%d) = %+v, want %+v", disk, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("WriteRunsFor(%d) = %+v, want %+v", disk, got, want)
					}
				}
			case 5: // ForEach, deleting a later key from inside the callback
				order := oracleKeys(oracle)
				var want []PageKey
				gone := map[PageKey]bool{}
				for i, key := range order {
					if gone[key] {
						continue
					}
					want = append(want, key)
					if j := i + 1 + arg%4; arg%3 != 0 && j < len(order) {
						gone[order[j]] = true
					}
				}
				var got []PageKey
				dt.ForEach(func(key PageKey, e Entry) {
					if e != oracle[key] {
						t.Fatalf("ForEach(%v) passed %+v, want %+v", key, e, oracle[key])
					}
					i := sort.Search(len(order), func(i int) bool { return !keyLess(order[i], key) })
					got = append(got, key)
					if j := i + 1 + arg%4; arg%3 != 0 && j < len(order) {
						dt.Delete(order[j])
						delete(oracle, order[j])
					}
				})
				if !equalKeys(got, want) {
					t.Fatalf("ForEach visited %v, want %v", got, want)
				}
			case 6: // Snapshot -> Restore into a fresh table
				blob, err := dt.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				restored := NewDTable(disks, pages)
				if err := restored.Restore(blob); err != nil {
					t.Fatal(err)
				}
				dt = restored
			}
			checkAgainstOracle(t, dt, oracle, disks)
		}
	})
}

// checkAgainstOracle compares the table's counts and ordered contents
// with the oracle map.
func checkAgainstOracle(t *testing.T, dt *DTable, oracle map[PageKey]Entry, disks int32) {
	t.Helper()
	writes := make([]int, disks)
	for key, e := range oracle {
		if e.Write {
			writes[key.Disk]++
		}
	}
	total := 0
	for d := int32(0); d < disks; d++ {
		if dt.WriteLenOn(d) != writes[d] {
			t.Fatalf("WriteLenOn(%d) = %d, want %d", d, dt.WriteLenOn(d), writes[d])
		}
		total += writes[d]
	}
	if dt.Len() != len(oracle) || dt.WriteLen() != total {
		t.Fatalf("Len=%d WriteLen=%d, want %d and %d", dt.Len(), dt.WriteLen(), len(oracle), total)
	}
	var got []PageKey
	dt.ForEach(func(key PageKey, e Entry) {
		if e != oracle[key] {
			t.Fatalf("entry %v = %+v, want %+v", key, e, oracle[key])
		}
		got = append(got, key)
	})
	if want := oracleKeys(oracle); !equalKeys(got, want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
}

func keyLess(a, b PageKey) bool {
	if a.Disk != b.Disk {
		return a.Disk < b.Disk
	}
	return a.Page < b.Page
}

// oracleKeys returns the oracle's keys in (disk, page) order.
func oracleKeys(oracle map[PageKey]Entry) []PageKey {
	keys := make([]PageKey, 0, len(oracle))
	for key := range oracle {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}

// oracleRuns is WriteRunsFor over the oracle map: sort the disk's write
// pages, then merge neighbours.
func oracleRuns(oracle map[PageKey]Entry, disk int32) []Run {
	var runs []Run
	for _, key := range oracleKeys(oracle) {
		if key.Disk != disk || !oracle[key].Write {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].Page+runs[n-1].Pages == key.Page {
			runs[n-1].Pages++
			continue
		}
		runs = append(runs, Run{Disk: disk, Page: key.Page, Pages: 1})
	}
	return runs
}
