package flash

// VictimPlan describes the collection of a single erase block: all valid
// pages are moved out, then the block is erased.
type VictimPlan struct {
	Block   int
	Channel int
	// Moved counts the valid pages read out of the victim, all of them on
	// Channel; Plan.Programs says where they were programmed.
	Moved int
}

// Plan is the outcome of one garbage-collection episode. The FTL state is
// already updated when a Plan is returned; the plan exists so the timed
// device model can charge the channel time the episode consumed. Its
// slices are the FTL's reused arenas: a plan is valid until the next
// CollectUntil on the same FTL.
type Plan struct {
	Victims    []VictimPlan
	PagesMoved int
	Erases     int

	programs []int32 // Channels counts per victim, victim-major
	channels int
}

// Programs returns, indexed by channel, how many of victim i's moved
// pages were programmed on each channel.
func (p *Plan) Programs(i int) []int32 {
	return p.programs[i*p.channels : (i+1)*p.channels]
}

// Empty reports whether the episode did no work.
func (p Plan) Empty() bool { return len(p.Victims) == 0 }

// NeedGC reports whether free space has fallen to or below the low
// watermark (in blocks).
func (f *FTL) NeedGC(lowWater int) bool { return f.freeBlocks <= lowWater }

// CollectUntil runs a greedy garbage-collection episode: it repeatedly
// selects the fullest-of-invalid victim block, relocates its valid pages,
// and erases it, until the free-block count reaches targetFree and at least
// minVictims blocks have been collected. Blocks whose pages are all valid
// are never selected (collecting them frees nothing). The returned plan
// counts the page moves and erases so the caller can model their latency.
//
// minVictims > 0 forces work even when free space is already above the
// target; the GGC policy uses this to make every device collect when any
// one device collects, reproducing the higher total GC counts the paper
// reports for GGC (Fig. 7b).
func (f *FTL) CollectUntil(targetFree, minVictims int) Plan {
	plan := Plan{Victims: f.gcVictims[:0], programs: f.gcPrograms[:0], channels: f.geom.Channels}
	for f.freeBlocks < targetFree || len(plan.Victims) < minVictims {
		b := f.pickVictim()
		if b < 0 {
			break // nothing collectible
		}
		start := len(plan.programs)
		for c := 0; c < f.geom.Channels; c++ {
			plan.programs = append(plan.programs, 0)
		}
		vp := f.collectBlock(b, plan.programs[start:])
		plan.Victims = append(plan.Victims, vp)
		plan.PagesMoved += vp.Moved
		plan.Erases++
	}
	f.gcVictims, f.gcPrograms = plan.Victims, plan.programs
	return plan
}

// pickVictim returns the full block with the most invalid pages, or -1 when
// no block has any invalid page. Ties break toward lower block numbers for
// determinism.
func (f *FTL) pickVictim() int {
	best, bestInvalid := -1, 0
	ppb := int32(f.geom.PagesPerBlock)
	for b := range f.blocks {
		if f.blocks[b].state != blockFull {
			continue
		}
		invalid := int(ppb - f.blocks[b].validPages)
		if invalid > bestInvalid {
			best, bestInvalid = b, invalid
		}
	}
	return best
}

// collectBlock relocates every valid page of block b and erases it,
// counting each relocation in programs at its destination channel.
// Destinations rotate across channels just like host writes do, so the
// relocation programs proceed in parallel instead of serializing behind
// the victim's own channel.
func (f *FTL) collectBlock(b int, programs []int32) VictimPlan {
	vp := VictimPlan{Block: b, Channel: f.geom.BlockChannel(b)}
	base := b * f.geom.PagesPerBlock
	for off := 0; off < f.geom.PagesPerBlock; off++ {
		from := base + off
		lpn := f.p2l[from]
		if lpn == unmapped {
			continue
		}
		preferred := f.nextChan
		f.nextChan = (f.nextChan + 1) % f.geom.Channels
		to, toChan := f.allocateForGC(preferred, b)
		// Relocate the mapping.
		f.p2l[from] = unmapped
		f.blocks[b].validPages--
		f.l2p[lpn] = int32(to)
		f.p2l[to] = lpn
		f.blocks[f.geom.PageBlock(to)].validPages++
		f.gcWrites++
		vp.Moved++
		programs[toChan]++
	}
	// Erase.
	f.blocks[b].state = blockFree
	f.blocks[b].writePtr = 0
	f.blocks[b].eraseCount++
	f.erases++
	if f.activeBlock[vp.Channel] == b {
		f.activeBlock[vp.Channel] = -1
	}
	f.freeByChan[vp.Channel] = append(f.freeByChan[vp.Channel], b)
	f.freeBlocks++
	return vp
}

// allocateForGC allocates a destination page for a GC move, preferring the
// victim's own channel and spilling to other channels when it is full. The
// victim block itself is excluded as a destination (it is about to be
// erased). It returns the page and its channel.
func (f *FTL) allocateForGC(preferred, victim int) (int, int) {
	if f.channelHasRoomExcluding(preferred, victim) {
		return f.allocateExcluding(preferred, victim), preferred
	}
	for i := 1; i < f.geom.Channels; i++ {
		c := (preferred + i) % f.geom.Channels
		if f.channelHasRoomExcluding(c, victim) {
			return f.allocateExcluding(c, victim), c
		}
	}
	panic("flash: no room anywhere for GC relocation; over-provisioning too small")
}

func (f *FTL) channelHasRoomExcluding(c, victim int) bool {
	for _, b := range f.freeByChan[c] {
		if b != victim {
			return true
		}
	}
	ab := f.activeBlock[c]
	return ab >= 0 && ab != victim && f.blocks[ab].writePtr < int32(f.geom.PagesPerBlock)
}

// allocateExcluding is allocate but will never open the excluded block as
// the active block.
func (f *FTL) allocateExcluding(c, excluded int) int {
	ab := f.activeBlock[c]
	if ab < 0 || ab == excluded || f.blocks[ab].writePtr >= int32(f.geom.PagesPerBlock) {
		if ab >= 0 && f.blocks[ab].writePtr >= int32(f.geom.PagesPerBlock) {
			f.blocks[ab].state = blockFull
		}
		idx := -1
		for i := len(f.freeByChan[c]) - 1; i >= 0; i-- {
			if f.freeByChan[c][i] != excluded {
				idx = i
				break
			}
		}
		if idx < 0 {
			panic("flash: allocateExcluding called with no eligible free block")
		}
		nb := f.freeByChan[c][idx]
		f.freeByChan[c] = append(f.freeByChan[c][:idx], f.freeByChan[c][idx+1:]...)
		f.freeBlocks--
		f.blocks[nb].state = blockActive
		f.blocks[nb].writePtr = 0
		f.activeBlock[c] = nb
		ab = nb
	}
	ppn := ab*f.geom.PagesPerBlock + int(f.blocks[ab].writePtr)
	f.blocks[ab].writePtr++
	return ppn
}
