// Package core implements GC-Steering, the paper's contribution: a
// controller-level scheme that steers popular read requests and all write
// requests away from SSDs that are busy garbage-collecting (or from a
// degraded array during reconstruction) into a staging space, and reclaims
// the redirected write data afterwards.
//
// The five functional components of the paper's Figure 3 map to this
// package as follows: the Popular Data Identifier is RLRU, the Staging
// Space Manager is the Staging implementations, the Request Redirector is
// Steering.route, and the Reclaimer is reclaim.go. The Administration
// Interface lives in the public facade package (gcsteering.Config and
// System); the mechanisms themselves are fixed as in the paper.
package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
)

// PageKey addresses one page on one member disk of the array.
type PageKey struct {
	Disk int32
	Page int32
}

// StageLoc is the staging-space location of one redirected page. Mirrored
// (RAID1-style) locations carry a second copy in Dev1/Page1; single-copy
// locations set Dev1 = -1. Devices are indexed in the staging space's own
// device list (the array members for reserved staging, the spare for
// dedicated staging).
type StageLoc struct {
	Dev0, Page0 int32
	Dev1, Page1 int32
}

// NoMirror is the Dev1 value of single-copy locations.
const NoMirror int32 = -1

// Mirrored reports whether the location holds two copies.
func (l StageLoc) Mirrored() bool { return l.Dev1 != NoMirror }

// Entry is one D_Table record: where a redirected page lives and whether
// it is redirected write data (Flag=true in the paper, meaning it must be
// reclaimed) or a migrated hot-read copy (Flag=false, droppable).
type Entry struct {
	Loc StageLoc
	// Write is the paper's Flag: true for redirected write data.
	Write bool
	// Gen increments on every update so the reclaimer can detect that an
	// entry changed while its write-back was in flight.
	Gen uint32
}

// DTable is the redirect log of GC-Steering (the paper's D_Table): a map
// from home location to staging location. The paper stores it in
// battery-backed NVRAM; Snapshot/Restore model the persistence path.
//
// Entries live in a small map, but the map is consulted only for keys
// that exist: two bitsets over the whole home address space, one bit per
// (disk, page), record which keys have an entry (live) and which of those
// are redirected writes (write). The request path asks about every page
// it touches and almost always misses, so a miss costs one bit test; the
// reclaimer's lowest write run and the ordered walk come from word scans
// of the bitsets instead of map iteration.
type DTable struct {
	m map[PageKey]Entry

	disks, pages int32
	words        int      // bitset words per disk
	live         []uint64 // disk-major: bit (d*words*64 + p) set when (d, p) has an entry
	write        []uint64 // same layout: set when the entry has Write
	writesOn     []int    // per-disk count of write entries
	writeEntries int      // entries with Write=true
}

// NewDTable returns an empty table for keys in [0,disks)×[0,pages).
func NewDTable(disks, pages int) *DTable {
	words := (pages + 63) / 64
	return &DTable{
		m:        make(map[PageKey]Entry),
		disks:    int32(disks),
		pages:    int32(pages),
		words:    words,
		live:     make([]uint64, disks*words),
		write:    make([]uint64, disks*words),
		writesOn: make([]int, disks),
	}
}

// inRange reports whether k addresses a page of the table.
func (t *DTable) inRange(k PageKey) bool {
	return uint32(k.Disk) < uint32(t.disks) && uint32(k.Page) < uint32(t.pages)
}

// bit returns k's bitset word index and mask; k must be in range.
func (t *DTable) bit(k PageKey) (int, uint64) {
	return int(k.Disk)*t.words + int(k.Page>>6), 1 << (uint(k.Page) & 63)
}

// Get returns the entry for k.
func (t *DTable) Get(k PageKey) (Entry, bool) {
	if !t.inRange(k) {
		return Entry{}, false
	}
	if i, b := t.bit(k); t.live[i]&b == 0 {
		return Entry{}, false
	}
	return t.m[k], true
}

// Put inserts or replaces the entry for k, bumping the generation. A key
// outside the table is an invariant violation and panics.
func (t *DTable) Put(k PageKey, loc StageLoc, write bool) Entry {
	if !t.inRange(k) {
		panic(fmt.Sprintf("core: D_Table key (%d,%d) outside [0,%d)×[0,%d)", k.Disk, k.Page, t.disks, t.pages))
	}
	var gen uint32
	if i, b := t.bit(k); t.live[i]&b != 0 {
		gen = t.m[k].Gen
	}
	e := Entry{Loc: loc, Write: write, Gen: gen + 1}
	t.set(k, e)
	return e
}

// set stores e under the in-range key k, keeping the bitsets and write
// counts in step with the map.
func (t *DTable) set(k PageKey, e Entry) {
	i, b := t.bit(k)
	t.clearWrite(k.Disk, i, b)
	t.live[i] |= b
	if e.Write {
		t.write[i] |= b
		t.writesOn[k.Disk]++
		t.writeEntries++
	}
	t.m[k] = e
}

// Delete removes the entry for k. Deleting an absent key is a no-op.
func (t *DTable) Delete(k PageKey) {
	if !t.inRange(k) {
		return
	}
	i, b := t.bit(k)
	if t.live[i]&b == 0 {
		return
	}
	t.clearWrite(k.Disk, i, b)
	t.live[i] &^= b
	delete(t.m, k)
}

// clearWrite drops the write flag at word i, mask b, of disk, if set.
func (t *DTable) clearWrite(disk int32, i int, b uint64) {
	if t.write[i]&b != 0 {
		t.write[i] &^= b
		t.writesOn[disk]--
		t.writeEntries--
	}
}

// Len returns the number of live entries.
func (t *DTable) Len() int { return len(t.m) }

// ForEach visits every entry in (disk, page) order. fn may put and delete
// entries: an entry deleted before the walk reaches it is skipped, and an
// entry inserted during the walk may or may not be visited, as with map
// iteration.
func (t *DTable) ForEach(fn func(PageKey, Entry)) {
	for i := range t.live {
		for w := t.live[i]; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if t.live[i]&(1<<b) == 0 {
				continue // deleted earlier in the walk
			}
			k := t.keyOf(i, b)
			fn(k, t.m[k])
		}
	}
}

// keyOf is the key of bit b in bitset word i.
func (t *DTable) keyOf(i, b int) PageKey {
	return PageKey{Disk: int32(i / t.words), Page: int32((i%t.words)*64 + b)}
}

// WriteLen returns the number of redirected-write entries awaiting reclaim.
func (t *DTable) WriteLen() int { return t.writeEntries }

// WriteLenOn returns the number of redirected-write entries homed on disk.
func (t *DTable) WriteLenOn(disk int32) int {
	if uint32(disk) >= uint32(t.disks) {
		return 0
	}
	return t.writesOn[disk]
}

// Run is a contiguous range of same-disk pages with live write entries,
// produced for the reclaimer. Merging contiguous pages lets the reclaim
// write-back hit the home disk with large sequential writes, the paper's
// "sequential data blocks ... merged into a large data block" optimization.
type Run struct {
	Disk  int32
	Page  int32 // first home page
	Pages int32
}

// WriteRunsFor returns the write entries homed on disk, merged into
// contiguous runs sorted by page.
func (t *DTable) WriteRunsFor(disk int32) []Run {
	var runs []Run
	for page := int32(0); ; {
		run, ok := t.writeRunFrom(disk, page)
		if !ok {
			return runs
		}
		runs = append(runs, run)
		page = run.Page + run.Pages
	}
}

// FirstWriteRunFor returns the lowest-page run that WriteRunsFor would
// report for disk, without materializing the full run list — the
// reclaimer drains one run per step. ok is false when the disk has no
// write entries.
func (t *DTable) FirstWriteRunFor(disk int32) (Run, bool) {
	return t.writeRunFrom(disk, 0)
}

// writeRunFrom returns the first write run on disk starting at or after
// page: a word scan of the disk's write bitset finds its first page, and
// bit tests extend it.
func (t *DTable) writeRunFrom(disk, page int32) (Run, bool) {
	if t.WriteLenOn(disk) == 0 || page >= t.pages {
		return Run{}, false
	}
	base := int(disk) * t.words
	words := t.write[base : base+t.words]
	wi := int(page >> 6)
	w := words[wi] &^ (1<<(uint(page)&63) - 1)
	for w == 0 {
		if wi++; wi == len(words) {
			return Run{}, false
		}
		w = words[wi]
	}
	run := Run{Disk: disk, Page: int32(wi*64 + bits.TrailingZeros64(w)), Pages: 1}
	for p := run.Page + 1; p < t.pages && words[p>>6]&(1<<(uint(p)&63)) != 0; p++ {
		run.Pages++
	}
	return run, true
}

// snapshotRecord is the gob wire form of one entry.
type snapshotRecord struct {
	Key   PageKey
	Entry Entry
}

// Snapshot serializes the table in (disk, page) order, modelling the
// paper's NVRAM persistence of D_Table across power failure.
func (t *DTable) Snapshot() ([]byte, error) {
	recs := make([]snapshotRecord, 0, len(t.m))
	t.ForEach(func(k PageKey, e Entry) {
		recs = append(recs, snapshotRecord{k, e})
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the table contents from a snapshot. A snapshot that
// does not decode, or that names a key outside the table, is rejected and
// leaves the table unchanged.
func (t *DTable) Restore(data []byte) error {
	var recs []snapshotRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recs); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	for _, r := range recs {
		if !t.inRange(r.Key) {
			return fmt.Errorf("core: restore: entry (%d,%d) outside [0,%d)×[0,%d)",
				r.Key.Disk, r.Key.Page, t.disks, t.pages)
		}
	}
	*t = *NewDTable(int(t.disks), int(t.pages))
	for _, r := range recs {
		t.set(r.Key, r.Entry)
	}
	return nil
}
