// Package dram models the DDR4 memory device of Table III at command
// granularity — the substrate under the §VI performance evaluation
// (Figs. 4, 14, 15, 16): channels, ranks, and banks with per-bank state
// machines that enforce the timing constraints relevant to Row Hammer
// analysis (tRC, tRCD, tCAS, tRP, tRFC), per-physical-row activation
// accounting within each refresh window, and a row-content identity map
// used to verify the correctness of swap-based mitigations.
//
// The simulator operates in integer CPU cycles (3.2 GHz by default), so
// all nanosecond timing parameters are converted once via FromConfig.
package dram

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/config"
)

// Cycles is a simulation timestamp or duration in CPU clock cycles.
type Cycles = int64

// Slot-counter packing: each entry of a bank's counter segment holds
// epoch<<epochShift | count. Epochs live in 1..epochLimit-1; the wrap
// back to 1 clears the segment so no ancient stamp can alias.
const (
	epochShift = 24
	epochLimit = 1 << (32 - epochShift)
	countMask  = 1<<epochShift - 1
)

// RowID identifies a row within a bank (0 .. RowsPerBank-1). It is used
// both for logical rows (the addresses the OS hands out) and physical
// slots (the locations where the contents currently live); swap-based
// mitigations maintain the mapping between the two.
type RowID = int32

// Timing holds the DDR4 timing parameters converted to CPU cycles.
type Timing struct {
	TRCD   Cycles // ACT -> column command
	TRP    Cycles // PRE -> ACT
	TCAS   Cycles // column command -> first data
	TRC    Cycles // ACT -> ACT, same bank
	TRAS   Cycles // ACT -> PRE
	TRFC   Cycles // refresh cycle time
	TREFI  Cycles // refresh command interval
	TBURST Cycles // bus occupancy for one 64 B line
	TRRD   Cycles // ACT -> ACT, different bank same rank
	TWR    Cycles // write recovery

	RefreshWindow Cycles // Row Hammer accounting window (64 ms)
}

// FromConfig converts nanosecond timing into cycles at clockGHz,
// rounding up so constraints are never undershot.
func FromConfig(t config.Timing, clockGHz float64) Timing {
	c := func(ns float64) Cycles {
		v := ns * clockGHz
		ci := Cycles(v)
		if float64(ci) < v {
			ci++
		}
		if ci < 1 {
			ci = 1
		}
		return ci
	}
	return Timing{
		TRCD:          c(t.TRCD),
		TRP:           c(t.TRP),
		TCAS:          c(t.TCAS),
		TRC:           c(t.TRC),
		TRAS:          c(t.TRAS),
		TRFC:          c(t.TRFC),
		TREFI:         c(t.TREFI),
		TBURST:        c(t.TBURST),
		TRRD:          c(t.TRRD),
		TWR:           c(t.TWR),
		RefreshWindow: c(t.RefreshWindow),
	}
}

// Bank models one DRAM bank: a row buffer, timing state, per-slot
// activation counters for the current refresh window, and the identity
// (logical row) of the data currently stored in each physical slot.
//
// Bank state is structure-of-arrays: the counters and permutation maps
// of all banks in a rank live in one contiguous rankState (see below),
// and each Bank holds subslices of its segment. The counters are read
// only at window ends (and by tests and tools), so recordACT does not
// touch them: it appends the slot to a short pending log, and settle
// folds the log into the counters before any read. An activated slot
// is effectively random within the 128K-slot segment, so charging it
// on the spot would miss the host cache on every ACT and stall the
// simulation behind each miss; the fold issues the same updates in a
// tight loop of independent accesses whose misses overlap.
type Bank struct {
	rows int

	openRow   RowID // physical slot currently in the row buffer, -1 if closed
	nextACT   Cycles
	busyUntil Cycles // refresh or migration blocking

	// slots is this bank's segment of the rank's packed activation
	// counters: each 32-bit entry holds epoch<<24 | count, where count
	// is the slot's activations in the refresh window stamped by the
	// 8-bit epoch — the quantity Row Hammer safety is defined over. A
	// stale stamp reads as zero, so a window roll is just an epoch bump
	// (StartNewWindow) and a recycled rankState needs no zeroing: the
	// next Memory continues from a fresh epoch and every old stamp is
	// dead. The epoch wraps every 255 generations, where the segment is
	// cleared once (amortized to nothing). 24 count bits are safe by
	// physics: tRC bounds a slot's activations in even a full 64 ms
	// window to ~1.4M, far under 2^24. 32-bit entries halve the
	// footprint settle's random touches spread over, versus split
	// count+epoch arrays.
	// touched lists the slots with a live count this window, in order
	// of first activation, bounding window sweeps to the slots actually
	// activated. pending lists this window's activations not yet folded
	// into slots (see settle).
	slots   []uint32
	touched []RowID
	pending []RowID
	epoch   uint32
	bankIdx int // index within the owning rankState
	state   *rankState

	// content[slot] is the logical row whose data currently occupies the
	// physical slot; location[logical] is the inverse permutation. Both
	// are nil while the mapping is the identity — only banks that a swap
	// mitigation actually touches pay for materializing them (subslices
	// of the rank-level arrays, allocated on the rank's first swap).
	// displaced counts the slots whose content differs from the identity
	// (maintained by SwapContents); permDirty lists every slot whose
	// content ever left its home this run (appended by SwapContents,
	// duplicates allowed). Together they let recycle restore a displaced
	// segment to the identity by repairing only the dirty slots — a few
	// hundred writes — instead of leaving the next materialize to refill
	// all 128K entries.
	content           []RowID
	location          []RowID
	displaced         int
	permDirty         []RowID
	permDirtyOverflow bool

	// Statistics (cumulative, never reset).
	TotalACTs    uint64
	TotalRefresh uint64

	// windowStartACTs is TotalACTs at the current window's start.
	windowStartACTs uint64
}

// rankState is the contiguous backing store for all banks of one rank:
// packed epoch-stamped activation counters, the (lazily allocated)
// content/location permutation arrays, and the carried-over bookkeeping
// that lets the whole block be pooled across Memory instances with zero
// clearing cost. It exists purely as storage — all behaviour stays on
// Bank, which operates on its own segment.
type rankState struct {
	banks, rows int
	slots       []uint32 // banks*rows packed epoch<<24|count entries

	// content/location are nil until the first swap anywhere in the
	// rank. permIdentity[b] records whether bank b's segment currently
	// holds the identity permutation (so a reused segment skips the
	// identity refill); it is only meaningful once the arrays exist.
	content      []RowID
	location     []RowID
	permIdentity []bool

	// Carried across pooling: the high-water epoch per bank (a reused
	// state resumes each bank above every stamp its segment contains)
	// and the touched-/pending-/dirty-list backings (capacity retained,
	// length zero).
	bankEpoch []uint32
	touched   [][]RowID
	pending   [][]RowID
	permDirty [][]RowID

	// groupSums is MaxGroupACT's per-group scratch, shared by the
	// rank's banks (one sweep at a time) and all zero between sweeps.
	groupSums []uint32
}

// rankStatePool recycles rankStates across Memory instances: zeroing
// 32 banks x 128K packed counters per run would dwarf a short
// simulation's wall clock, and the epoch scheme makes clearing
// unnecessary — a pooled state is reusable as-is.
var rankStatePool sync.Pool

func takeRankState(banks, rows int) *rankState {
	if v, ok := rankStatePool.Get().(*rankState); ok && v.banks == banks && v.rows == rows {
		return v
	}
	return &rankState{
		banks:     banks,
		rows:      rows,
		slots:     make([]uint32, banks*rows),
		bankEpoch: make([]uint32, banks),
		touched:   make([][]RowID, banks),
		pending:   make([][]RowID, banks),
		permDirty: make([][]RowID, banks),
	}
}

// bankFromState returns the idx'th bank of a rankState, resuming one
// epoch above the segment's high-water stamp so every count a previous
// owner left behind reads as zero.
func bankFromState(st *rankState, idx int) *Bank {
	b := &Bank{
		rows:      st.rows,
		openRow:   -1,
		slots:     st.slots[idx*st.rows : (idx+1)*st.rows],
		touched:   st.touched[idx],
		pending:   st.pending[idx],
		permDirty: st.permDirty[idx],
		epoch:     st.bankEpoch[idx] + 1,
		bankIdx:   idx,
		state:     st,
	}
	if b.epoch == epochLimit { // stamp space exhausted: clear and restart
		clearSlots(b.slots)
		b.epoch = 1
	}
	return b
}

// newBank returns a standalone bank backed by a private single-bank
// rankState (direct Bank construction is used by tests and tools; the
// simulator always builds banks rank-at-a-time via NewMemory).
func newBank(rows int) *Bank {
	return bankFromState(takeRankState(1, rows), 0)
}

// recycle detaches the bank from its rankState, recording the
// high-water epoch (so the next owner of the segment resumes above it),
// the touched and pending backings (capacity kept, length zeroed), and
// whether the permutation segment is back to the identity (the usual
// end state: place-back unwinds every swap). The bank must not be used
// afterwards; Memory.Recycle pools the rankState itself once every bank
// detached.
func (b *Bank) recycle() {
	b.settle()
	st := b.state
	st.bankEpoch[b.bankIdx] = b.epoch
	st.touched[b.bankIdx] = b.touched[:0]
	st.pending[b.bankIdx] = b.pending[:0]
	if b.content != nil {
		if b.displaced > 0 && !b.permDirtyOverflow {
			// Restore the segment to the identity by repairing only the
			// entries swaps ever moved: O(swaps this run), vs a full
			// 2x128K-entry refill on the segment's next materialize.
			for _, s := range b.permDirty {
				b.content[s] = s
				b.location[s] = s
			}
			b.displaced = 0
		}
		st.permIdentity[b.bankIdx] = b.displaced == 0
	}
	st.permDirty[b.bankIdx] = b.permDirty[:0]
	b.slots, b.touched, b.pending, b.permDirty, b.content, b.location, b.state = nil, nil, nil, nil, nil, nil, nil
}

func clearSlots(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}

// materialize attaches the bank's content/location permutation segments,
// which are implicitly the identity until the first swap. The rank-level
// arrays are allocated on the rank's first swap; a segment is refilled
// with the identity only if a previous owner left it displaced.
func (b *Bank) materialize() {
	if b.content != nil {
		return
	}
	st := b.state
	if st.content == nil {
		st.content = make([]RowID, st.banks*st.rows)
		st.location = make([]RowID, st.banks*st.rows)
		st.permIdentity = make([]bool, st.banks)
	}
	b.content = st.content[b.bankIdx*st.rows : (b.bankIdx+1)*st.rows]
	b.location = st.location[b.bankIdx*st.rows : (b.bankIdx+1)*st.rows]
	if !st.permIdentity[b.bankIdx] {
		for i := 0; i < st.rows; i++ {
			b.content[i] = RowID(i)
			b.location[i] = RowID(i)
		}
		st.permIdentity[b.bankIdx] = true
	}
}

// Rows returns the number of rows in the bank.
func (b *Bank) Rows() int { return b.rows }

// OpenRow returns the physical slot currently open, or -1.
func (b *Bank) OpenRow() RowID { return b.openRow }

// ACTCount returns the activation count of a physical slot in the
// current refresh window. Counts stamped by an earlier window (or an
// earlier owner of the pooled storage) read as zero.
func (b *Bank) ACTCount(slot RowID) uint32 {
	b.settle()
	v := b.slots[slot]
	if v>>epochShift != b.epoch {
		return 0
	}
	return v & countMask
}

// MaxWindowACT returns the highest per-slot activation count seen in the
// current refresh window and a slot that incurred it. It scans the
// window's touched list: callers read it once per window roll, while
// recordACT runs once per activation, so keeping the running maximum
// out of the per-ACT path is the right trade.
func (b *Bank) MaxWindowACT() (uint32, RowID) {
	b.settle()
	var count uint32
	var slot RowID
	for _, s := range b.touched {
		// Every touched entry was stamped this window, so the packed
		// value's count bits are live.
		if c := b.slots[s] & countMask; c > count {
			count = c
			slot = s
		}
	}
	return count, slot
}

// MaxGroupACT returns the highest activation total of any aligned group
// of groupRows consecutive slots (slots g*groupRows up to
// (g+1)*groupRows-1) in the current refresh window. Like MaxWindowACT it
// scans only the touched list, summing into the rank's scratch array,
// and a second pass re-zeroes the groups it touched.
func (b *Bank) MaxGroupACT(groupRows int) uint32 {
	b.settle()
	st := b.state
	if n := (b.rows + groupRows - 1) / groupRows; len(st.groupSums) < n {
		st.groupSums = make([]uint32, n)
	}
	sums := st.groupSums
	var best uint32
	for _, s := range b.touched {
		g := int(s) / groupRows
		sums[g] += b.slots[s] & countMask
		best = max(best, sums[g])
	}
	for _, s := range b.touched {
		sums[int(s)/groupRows] = 0
	}
	return best
}

// ContentAt returns the logical row stored in a physical slot.
func (b *Bank) ContentAt(slot RowID) RowID {
	if b.content == nil {
		return slot
	}
	return b.content[slot]
}

// LocationOf returns the physical slot storing a logical row's data.
func (b *Bank) LocationOf(logical RowID) RowID {
	if b.location == nil {
		return logical
	}
	return b.location[logical]
}

// Activate opens the physical slot, enforcing tRC and any busy period.
// It returns the cycle at which column commands may issue (ACT start +
// tRCD). The activation is charged to the slot's Row Hammer counter.
func (b *Bank) Activate(slot RowID, now Cycles, t *Timing) Cycles {
	start := now
	if b.nextACT > start {
		start = b.nextACT
	}
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.openRow = slot
	b.nextACT = start + t.TRC
	b.recordACT(slot)
	return start + t.TRCD
}

// pendingLimit bounds a bank's pending log: a full log is settled on
// the spot, so the log stays cache-resident (4 KB) however long a
// window runs, while each fold still has ample independent misses to
// overlap.
const pendingLimit = 1 << 10

// recordACT charges one activation to the slot's Row Hammer counter by
// logging it; settle applies it before any read.
func (b *Bank) recordACT(slot RowID) {
	b.TotalACTs++
	b.pending = append(b.pending, slot)
	if len(b.pending) == pendingLimit {
		b.settle()
	}
}

// settle folds the pending log into the packed epoch|count words in
// activation order: an in-window word adds 1, a stale one is restamped
// to this window with count 1 and its slot appended to touched. The
// result is exactly what charging each ACT on the spot would leave,
// touched order included. Every reader of the counters calls it first.
func (b *Bank) settle() {
	for _, slot := range b.pending {
		v := b.slots[slot]
		if v>>epochShift == b.epoch {
			b.slots[slot] = v + 1
			continue
		}
		b.slots[slot] = b.epoch<<epochShift | 1
		b.touched = append(b.touched, slot)
	}
	b.pending = b.pending[:0]
}

// Precharge closes the row buffer.
func (b *Bank) Precharge() { b.openRow = -1 }

// Access performs a closed-page access to the physical slot: ACT, one
// column read or write, auto-precharge. It returns the cycle when data is
// available (read) or accepted (write). Bank availability for the next
// ACT is governed by tRC via nextACT.
func (b *Bank) Access(slot RowID, write bool, now Cycles, t *Timing) Cycles {
	colReady := b.Activate(slot, now, t)
	b.Precharge()
	done := colReady + t.TCAS + t.TBURST
	if write {
		done += t.TWR
	}
	return done
}

// AccessOpen performs an open-page access: a row-buffer hit issues only
// the column command; a miss precharges and activates first.
func (b *Bank) AccessOpen(slot RowID, write bool, now Cycles, t *Timing) Cycles {
	if b.openRow == slot {
		start := now
		if b.busyUntil > start {
			start = b.busyUntil
		}
		done := start + t.TCAS + t.TBURST
		if write {
			done += t.TWR
		}
		return done
	}
	colReady := b.Activate(slot, now, t)
	done := colReady + t.TCAS + t.TBURST
	if write {
		done += t.TWR
	}
	return done
}

// Refresh blocks the bank for tRFC starting no earlier than now.
func (b *Bank) Refresh(now Cycles, t *Timing) {
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	if b.nextACT > start {
		start = b.nextACT
	}
	b.busyUntil = start + t.TRFC
	b.openRow = -1
	b.TotalRefresh++
}

// Block reserves the bank until the given cycle (used to model the
// latency of swap and place-back row migrations).
func (b *Bank) Block(until Cycles) {
	if until > b.busyUntil {
		b.busyUntil = until
	}
}

// BusyUntil returns the cycle until which the bank is reserved.
func (b *Bank) BusyUntil() Cycles { return b.busyUntil }

// NextACT returns the earliest cycle at which a new ACT may start.
func (b *Bank) NextACT() Cycles { return b.nextACT }

// SwapContents exchanges the data identities of two physical slots,
// updating both direction maps. It does NOT account activations — the
// mitigation layer issues the explicit Activate sequence so that latent
// activations are modelled faithfully.
func (b *Bank) SwapContents(slotA, slotB RowID) {
	b.materialize()
	la, lb := b.content[slotA], b.content[slotB]
	before := displacedOf(slotA, la) + displacedOf(slotB, lb)
	b.content[slotA], b.content[slotB] = lb, la
	b.location[la], b.location[lb] = slotB, slotA
	b.displaced += displacedOf(slotA, lb) + displacedOf(slotB, la) - before
	// Record every permutation entry this swap wrote (content at the two
	// slots, location at the two logical rows) so recycle can repair the
	// segment back to the identity without a full sweep. The cap bounds
	// pathological swap volumes: past it, repair falls back to a refill.
	if len(b.permDirty)+4 <= b.rows {
		b.permDirty = append(b.permDirty, slotA, slotB, la, lb)
	} else {
		b.permDirtyOverflow = true
	}
}

// displacedOf is 1 when a slot holding the given logical row is away
// from its home slot, else 0.
func displacedOf(slot, logical RowID) int {
	if slot == logical {
		return 0
	}
	return 1
}

// VerifyPermutation checks that content and location are mutually inverse
// permutations — the data-integrity invariant of any swap mitigation.
func (b *Bank) VerifyPermutation() error {
	if b.content == nil {
		return nil // implicit identity
	}
	seen := make([]bool, b.rows)
	for slot, logical := range b.content {
		if logical < 0 || int(logical) >= b.rows {
			return fmt.Errorf("dram: slot %d holds out-of-range logical row %d", slot, logical)
		}
		if seen[logical] {
			return fmt.Errorf("dram: logical row %d stored in two slots", logical)
		}
		seen[logical] = true
		if b.location[logical] != RowID(slot) {
			return fmt.Errorf("dram: location[%d]=%d but content[%d]=%d",
				logical, b.location[logical], slot, logical)
		}
	}
	return nil
}

// IsIdentity reports whether every logical row currently resides in its
// home slot (i.e. all swaps have been unwound).
func (b *Bank) IsIdentity() bool {
	if b.content == nil {
		return true
	}
	for slot, logical := range b.content {
		if RowID(slot) != logical {
			return false
		}
	}
	return true
}

// DisplacedRows returns the number of logical rows not in their home slot.
func (b *Bank) DisplacedRows() int {
	n := 0
	for slot, logical := range b.content {
		if RowID(slot) != logical {
			n++
		}
	}
	return n
}

// StartNewWindow resets the per-slot activation counters at a refresh-
// window boundary. With epoch-stamped counters this is a generation
// bump — every count stamped by the old epoch now reads as zero without
// touching a single slot — plus truncating the touched list.
func (b *Bank) StartNewWindow() {
	b.settle()
	b.epoch++
	if b.epoch == epochLimit { // stamp wrap: old stamps would alias, clear them
		clearSlots(b.slots)
		b.epoch = 1
	}
	b.touched = b.touched[:0]
	b.windowStartACTs = b.TotalACTs
}

// WindowACTs returns the activations the bank has issued in the current
// refresh window.
func (b *Bank) WindowACTs() uint64 { return b.TotalACTs - b.windowStartACTs }

// VictimSlots returns, in ascending slot order, the physical slots whose
// activation count reached trh in the current window — the slots whose
// neighbours would have suffered Row Hammer bit flips.
func (b *Bank) VictimSlots(trh uint32) []RowID {
	b.settle()
	var out []RowID
	for _, slot := range b.touched {
		if b.slots[slot]&countMask >= trh {
			out = append(out, slot)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
