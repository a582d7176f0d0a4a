package tracker

// Hydra is the hybrid tracker of Qureshi et al. (ISCA'22): rows are
// first tracked at group granularity by small on-chip counters; once a
// group's count crosses a threshold, the group switches to per-row
// counters that live in DRAM behind an on-chip Row Counter Cache (RCC).
// Every RCC miss costs a DRAM access (plus one more when it evicts a
// dirty entry), which is why RRS+Hydra degrades sharply at low T_RH in
// Fig. 16 — low thresholds mean more groups in per-row mode and more
// counter traffic.
type Hydra struct {
	groupSize   int
	groupThresh int
	rccCap      int

	banks []hydraBank

	// Stats
	RCCHits   uint64
	RCCMisses uint64
}

type hydraBank struct {
	gcount  []int         // per-group counts (group mode)
	perRow  []bool        // group switched to per-row tracking
	rowMem  map[int32]int // DRAM-resident per-row counters
	rcc     map[int32]rccEntry
	rccTick uint64
}

type rccEntry struct {
	count int
	dirty bool
	lru   uint64
}

// NewHydra returns a Hydra tracker. groupSize is the number of rows per
// group counter (128 in the Hydra paper), groupThresh the count at which
// a group transitions to per-row mode (T_S/2 here, conservatively below
// the mitigation threshold), and rccCap the per-bank row-counter-cache
// capacity.
func NewHydra(numBanks, rowsPerBank, groupSize, groupThresh, rccCap int) *Hydra {
	if groupSize < 1 {
		groupSize = 128
	}
	if groupThresh < 1 {
		groupThresh = 1
	}
	if rccCap < 1 {
		rccCap = 1024
	}
	h := &Hydra{groupSize: groupSize, groupThresh: groupThresh, rccCap: rccCap}
	groups := (rowsPerBank + groupSize - 1) / groupSize
	h.banks = make([]hydraBank, numBanks)
	for i := range h.banks {
		h.banks[i] = hydraBank{
			gcount: make([]int, groups),
			perRow: make([]bool, groups),
			rowMem: make(map[int32]int),
			rcc:    make(map[int32]rccEntry),
		}
	}
	return h
}

// Name implements Tracker.
func (h *Hydra) Name() string { return "hydra" }

// RecordACT implements Tracker.
func (h *Hydra) RecordACT(bankIdx int, row int32) (int, int) {
	b := &h.banks[bankIdx]
	g := int(row) / h.groupSize
	if !b.perRow[g] {
		b.gcount[g]++
		if b.gcount[g] < h.groupThresh {
			return b.gcount[g], 0
		}
		// Transition: per-row counters are initialized (pessimistically,
		// as in Hydra) to the group count and written to DRAM. Cost: one
		// read-modify-write burst of the counter row.
		b.perRow[g] = true
		return b.gcount[g], 1
	}
	// Per-row mode: consult the RCC.
	extra := 0
	e, ok := b.rcc[row]
	if ok {
		h.RCCHits++
	} else {
		h.RCCMisses++
		extra++ // fetch the counter from DRAM
		// Initialize from DRAM-resident value, defaulting to the group
		// count at transition time.
		v, seen := b.rowMem[row]
		if !seen {
			v = b.gcount[g]
		}
		e = rccEntry{count: v}
		if len(b.rcc) >= h.rccCap {
			extra += b.evictRCC() // dirty eviction writes back to DRAM
		}
	}
	e.count++
	e.dirty = true
	b.rccTick++
	e.lru = b.rccTick
	b.rcc[row] = e
	return e.count, extra
}

// evictRCC removes the LRU entry, returning 1 if the eviction required a
// DRAM writeback.
func (b *hydraBank) evictRCC() int {
	var victim int32
	var oldest uint64 = ^uint64(0)
	for r, e := range b.rcc {
		if e.lru < oldest {
			oldest = e.lru
			victim = r
		}
	}
	e := b.rcc[victim]
	delete(b.rcc, victim)
	if e.dirty {
		b.rowMem[victim] = e.count
		return 1
	}
	return 0
}

// ResetRow implements Tracker.
func (h *Hydra) ResetRow(bankIdx int, row int32) {
	b := &h.banks[bankIdx]
	if e, ok := b.rcc[row]; ok {
		e.count = 0
		e.dirty = true
		b.rcc[row] = e
	}
	b.rowMem[row] = 0
}

// Reset implements Tracker. The maps are cleared in place, keeping their
// buckets for the next window; evictRCC's victim is the unique oldest
// lru stamp, so map iteration order never reaches a result.
func (h *Hydra) Reset() {
	for i := range h.banks {
		b := &h.banks[i]
		for g := range b.gcount {
			b.gcount[g] = 0
			b.perRow[g] = false
		}
		clear(b.rowMem)
		clear(b.rcc)
	}
}

// PerRowGroups returns how many groups of a bank are in per-row mode
// (a measure of tracker memory pressure).
func (h *Hydra) PerRowGroups(bankIdx int) int {
	n := 0
	for _, m := range h.banks[bankIdx].perRow {
		if m {
			n++
		}
	}
	return n
}
