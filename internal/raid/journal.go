package raid

import (
	"gcsteering/internal/obs"
	"gcsteering/internal/sim"
)

// IntentLog is the array's write-ahead dirty-stripe intent journal — the
// mechanism that closes the RAID write hole. Every RAID5/6 stripe write
// marks its stripe dirty *before* the RMW/reconstruct-write fan-out and
// clears the mark at the stripe's completion barrier, so a power cut
// between the data leg and the parity leg leaves the stripe's mark in the
// persisted log: restart knows exactly which stripes may be torn and
// resyncs only those.
//
// The mark itself is modeled as durable at the instant it is taken (NVRAM
// or a metadata write piggybacked on the fan-out): what the simulation
// measures is the recovery-scope difference the journal buys, not the
// marginal cost of the mark write. A nil *IntentLog is the disabled
// journal: the write path pays one nil check and the traces stay
// byte-identical to a journal-free build.
type IntentLog struct {
	// Journaled marks full journal semantics: mark/clear events are traced
	// and the dirty list is handed to recovery. A log with Journaled false
	// still records intents — crash runs need the ground truth to place
	// torn pages — but recovery must pretend it does not exist (the
	// journal-off window-of-vulnerability mode).
	//gcsvet:inert
	Journaled bool

	open          []*intent // in mark order; completed entries removed
	marks, clears int64
}

// intentLeg is one phase-2 write leg registered under an intent.
type intentLeg struct {
	op   SubOp
	done bool
}

// intent is one in-flight stripe write's journal entry. Concurrent writes
// to the same stripe each hold their own entry (a refcounted mark), so the
// stripe stays dirty until the last one clears.
type intent struct {
	stripe int
	issued bool // phase 2 has begun: legs may be on the flash
	done   int  // completed legs
	legs   []intentLeg
}

// Marks and Clears report the cumulative journal activity.
func (l *IntentLog) Marks() int64  { return l.marks }
func (l *IntentLog) Clears() int64 { return l.clears }

// Open reports how many intents are currently open (dirty stripe entries).
func (l *IntentLog) Open() int { return len(l.open) }

// mark opens a journal entry for stripe st ahead of its write fan-out.
//
// gcsvet: the intent journal is an opt-in crash-consistency feature
// (reached only behind a.Intents != nil), so its per-write bookkeeping
// is fenced off from hotalloc with //gcsvet:cold — the default config's
// hot path never gets here, which is what TestReplayAllocsExact counts.
//
//gcsvet:cold
func (l *IntentLog) mark(st int) *intent {
	it := &intent{stripe: st}
	l.open = append(l.open, it)
	l.marks++
	return it
}

// register records the phase-2 legs the entry covers (copied: the sub-op
// slice returns to the array's free list once issued).
//
// gcsvet: opt-in journal bookkeeping, cold for the same reason as mark.
//
//gcsvet:cold
func (l *IntentLog) register(it *intent, phase2 []SubOp) {
	if cap(it.legs) < len(phase2) {
		it.legs = make([]intentLeg, 0, len(phase2))
	}
	it.legs = it.legs[:0]
	for _, op := range phase2 {
		it.legs = append(it.legs, intentLeg{op: op})
	}
}

// clear retires the entry at the stripe's completion barrier.
func (l *IntentLog) clear(it *intent) {
	for i, o := range l.open {
		if o == it {
			l.open = append(l.open[:i], l.open[i+1:]...)
			break
		}
	}
	l.clears++
}

// StripeIntent is one open journal entry harvested at a power cut.
type StripeIntent struct {
	Stripe int
	// Issued marks entries whose phase-2 legs had begun: the stripe may be
	// physically torn. An unissued entry (cut during the read phase) left
	// the old stripe intact.
	Issued bool
	// Legs and LegsDone count the registered write legs and how many had
	// completed by the cut.
	Legs, LegsDone int
	// Pending are the legs that had NOT completed: their extents hold old
	// data (not yet started) or garbage (torn mid-program).
	Pending []SubOp
}

// OpenIntents snapshots the journal's open entries — the dirty-stripe list
// a restart replays. Entries appear in mark order. Nil journal → nil.
func (a *Array) OpenIntents() []StripeIntent {
	if a.Intents == nil {
		return nil
	}
	out := make([]StripeIntent, 0, len(a.Intents.open))
	for _, it := range a.Intents.open {
		si := StripeIntent{Stripe: it.stripe, Issued: it.issued, Legs: len(it.legs), LegsDone: it.done}
		for _, leg := range it.legs {
			if !leg.done {
				si.Pending = append(si.Pending, leg.op)
			}
		}
		out = append(out, si)
	}
	return out
}

// journalClear wraps a stripe-write completion callback with the journal
// retire, emitting the clear event under full journal semantics.
//
// gcsvet: opt-in journal path (a.Intents != nil), cold for hotalloc.
//
//gcsvet:cold
func (a *Array) journalClear(it *intent, done func(now sim.Time)) func(now sim.Time) {
	return func(t sim.Time) {
		a.Intents.clear(it)
		if a.Intents.Journaled && a.Trace.Enabled() {
			a.Trace.Emit(t, obs.Event{Kind: obs.KJournalClear, Dev: -1, Page: -1,
				Aux: int64(it.stripe)})
		}
		if done != nil {
			done(t)
		}
	}
}

// issuePhase2Journal is issuePhase2 with per-leg completion tracking, used
// only when the intent journal is armed: each leg's callback flips its done
// flag so a power cut can tell persisted legs from pending ones.
//
// gcsvet: opt-in journal path (a.Intents != nil), cold for hotalloc.
//
//gcsvet:cold
func (a *Array) issuePhase2Journal(t sim.Time, phase2 []SubOp, done func(now sim.Time), it *intent) {
	it.issued = true
	if len(phase2) == 0 {
		a.putSubOps(phase2)
		if done != nil {
			a.eng.At(t, done)
		}
		return
	}
	cb := sim.Barrier(len(phase2), done)
	for li, op := range phase2 {
		leg := &it.legs[li]
		a.issue(t, op, func(tt sim.Time) {
			leg.done = true
			it.done++
			cb(tt)
		})
	}
	a.putSubOps(phase2)
}
