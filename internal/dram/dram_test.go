package dram

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/stats"
)

func testTiming() Timing {
	return FromConfig(config.DDR4(), 3.2)
}

func TestFromConfigConversion(t *testing.T) {
	tm := testTiming()
	if tm.TRC != 144 { // 45 ns * 3.2 GHz
		t.Errorf("TRC = %d cycles, want 144", tm.TRC)
	}
	if tm.TRFC != 1120 { // 350 ns * 3.2
		t.Errorf("TRFC = %d cycles, want 1120", tm.TRFC)
	}
	if tm.TREFI != 25000 { // 7812.5 ns * 3.2
		t.Errorf("TREFI = %d cycles, want 25000", tm.TREFI)
	}
	if tm.RefreshWindow != 204_800_000 { // 64 ms * 3.2 GHz
		t.Errorf("RefreshWindow = %d cycles", tm.RefreshWindow)
	}
	// Rounding is upward: 14 ns * 3.2 = 44.8 -> 45.
	if tm.TRCD != 45 {
		t.Errorf("TRCD = %d cycles, want 45", tm.TRCD)
	}
}

func TestBankActivateEnforcesTRC(t *testing.T) {
	tm := testTiming()
	b := newBank(1024)
	r1 := b.Activate(5, 0, &tm)
	if r1 != tm.TRCD {
		t.Errorf("first activate col-ready at %d, want %d", r1, tm.TRCD)
	}
	// Back-to-back ACT must wait until tRC has elapsed.
	r2 := b.Activate(6, 1, &tm)
	if want := tm.TRC + tm.TRCD; r2 != want {
		t.Errorf("second activate col-ready at %d, want %d", r2, want)
	}
	if b.ACTCount(5) != 1 || b.ACTCount(6) != 1 {
		t.Error("activation counters wrong")
	}
	if b.TotalACTs != 2 {
		t.Errorf("TotalACTs = %d", b.TotalACTs)
	}
}

func TestBankAccessClosedPage(t *testing.T) {
	tm := testTiming()
	b := newBank(16)
	done := b.Access(3, false, 100, &tm)
	if want := 100 + tm.TRCD + tm.TCAS + tm.TBURST; done != want {
		t.Errorf("read done at %d, want %d", done, want)
	}
	if b.OpenRow() != -1 {
		t.Error("closed-page access left row open")
	}
	wdone := b.Access(3, true, done, &tm)
	if wdone <= done {
		t.Error("write did not advance time")
	}
}

func TestBankAccessOpenPageHit(t *testing.T) {
	tm := testTiming()
	b := newBank(16)
	b.Activate(3, 0, &tm)
	before := b.ACTCount(3)
	done := b.AccessOpen(3, false, 200, &tm)
	if want := 200 + tm.TCAS + tm.TBURST; done != want {
		t.Errorf("row-hit read done at %d, want %d", done, want)
	}
	if b.ACTCount(3) != before {
		t.Error("row-buffer hit should not add an activation")
	}
	// Miss on a different row activates.
	b.AccessOpen(4, false, done, &tm)
	if b.ACTCount(4) != 1 {
		t.Error("row miss should activate")
	}
}

func TestBankRefreshBlocks(t *testing.T) {
	tm := testTiming()
	b := newBank(16)
	b.Refresh(1000, &tm)
	if b.BusyUntil() != 1000+tm.TRFC {
		t.Errorf("BusyUntil = %d", b.BusyUntil())
	}
	// An activate during refresh is delayed past it.
	r := b.Activate(0, 1001, &tm)
	if r < 1000+tm.TRFC {
		t.Errorf("activate during refresh finished at %d", r)
	}
	if b.TotalRefresh != 1 {
		t.Errorf("TotalRefresh = %d", b.TotalRefresh)
	}
}

func TestSwapContentsAndPermutation(t *testing.T) {
	b := newBank(8)
	b.SwapContents(1, 5)
	if b.ContentAt(1) != 5 || b.ContentAt(5) != 1 {
		t.Error("SwapContents did not exchange identities")
	}
	if b.LocationOf(5) != 1 || b.LocationOf(1) != 5 {
		t.Error("location map inconsistent")
	}
	if err := b.VerifyPermutation(); err != nil {
		t.Errorf("VerifyPermutation: %v", err)
	}
	if b.IsIdentity() {
		t.Error("IsIdentity true after swap")
	}
	if b.DisplacedRows() != 2 {
		t.Errorf("DisplacedRows = %d, want 2", b.DisplacedRows())
	}
	b.SwapContents(1, 5)
	if !b.IsIdentity() {
		t.Error("double swap should restore identity")
	}
}

// Property: any sequence of swaps preserves the permutation invariant.
func TestPropertySwapSequencePermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := stats.NewRNG(seed)
		b := newBank(64)
		for i := 0; i < int(n); i++ {
			b.SwapContents(RowID(rng.Intn(64)), RowID(rng.Intn(64)))
		}
		return b.VerifyPermutation() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowAccountingAndVictims(t *testing.T) {
	tm := testTiming()
	b := newBank(16)
	now := Cycles(0)
	for i := 0; i < 10; i++ {
		b.Activate(7, now, &tm)
		now += tm.TRC
	}
	count, slot := b.MaxWindowACT()
	if count != 10 || slot != 7 {
		t.Errorf("MaxWindowACT = %d@%d, want 10@7", count, slot)
	}
	if v := b.VictimSlots(10); len(v) != 1 || v[0] != 7 {
		t.Errorf("VictimSlots = %v", v)
	}
	if v := b.VictimSlots(11); len(v) != 0 {
		t.Errorf("VictimSlots above count = %v", v)
	}
	if n := b.WindowACTs(); n != 10 {
		t.Errorf("WindowACTs = %d, want 10", n)
	}
	b.StartNewWindow()
	if c, _ := b.MaxWindowACT(); c != 0 || b.ACTCount(7) != 0 || b.WindowACTs() != 0 {
		t.Error("StartNewWindow did not reset counters")
	}
	if b.TotalACTs != 10 {
		t.Error("cumulative TotalACTs should survive window reset")
	}
	b.Activate(7, now, &tm)
	if n := b.WindowACTs(); n != 1 {
		t.Errorf("WindowACTs after one ACT in the new window = %d, want 1", n)
	}
}

func TestMemoryDecodeEncodeRoundTrip(t *testing.T) {
	m := NewMemory(config.DefaultGeometry(), testTiming())
	f := func(addr uint64) bool {
		addr %= uint64(config.DefaultGeometry().TotalBytes())
		addr &^= 63 // line aligned
		loc := m.Decode(addr)
		return m.Encode(loc) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMemoryDecodeSpreadsBanks(t *testing.T) {
	m := NewMemory(config.DefaultGeometry(), testTiming())
	seen := map[int]bool{}
	for i := uint64(0); i < 64; i++ {
		loc := m.Decode(i * 64)
		if loc.BankIdx < 0 || loc.BankIdx >= m.NumBanks() {
			t.Fatalf("bad bank index %d", loc.BankIdx)
		}
		seen[loc.BankIdx] = true
	}
	if len(seen) != 32 {
		t.Errorf("64 consecutive lines touched %d banks, want 32", len(seen))
	}
}

func TestMemoryRefreshRank(t *testing.T) {
	m := NewMemory(config.DefaultGeometry(), testTiming())
	m.RefreshRank(0, 0, 500)
	tm := m.Timing()
	for b := 0; b < 16; b++ {
		if m.Bank(m.BankIndex(0, 0, b)).BusyUntil() != 500+tm.TRFC {
			t.Errorf("bank %d not refreshed", b)
		}
	}
	// Other channel untouched.
	if m.Bank(m.BankIndex(1, 0, 0)).BusyUntil() != 0 {
		t.Error("refresh leaked across channels")
	}
}

func TestMemoryAggregates(t *testing.T) {
	m := NewMemory(config.DefaultGeometry(), testTiming())
	tm := m.Timing()
	b := m.Bank(3)
	b.Activate(100, 0, tm)
	b.Activate(100, tm.TRC, tm)
	count, bankIdx, slot := m.MaxWindowACT()
	if count != 2 || bankIdx != 3 || slot != 100 {
		t.Errorf("MaxWindowACT = %d@bank%d slot%d", count, bankIdx, slot)
	}
	if m.TotalACTs() != 2 {
		t.Errorf("TotalACTs = %d", m.TotalACTs())
	}
	if err := m.VerifyPermutations(); err != nil {
		t.Errorf("VerifyPermutations: %v", err)
	}
	m.StartNewWindow()
	if c, _, _ := m.MaxWindowACT(); c != 0 {
		t.Error("StartNewWindow did not reset")
	}
}

func TestBankBlock(t *testing.T) {
	b := newBank(4)
	b.Block(1000)
	if b.BusyUntil() != 1000 {
		t.Errorf("BusyUntil = %d", b.BusyUntil())
	}
	b.Block(500) // must not move backwards
	if b.BusyUntil() != 1000 {
		t.Error("Block moved busyUntil backwards")
	}
}

func TestLazyIdentityMaps(t *testing.T) {
	b := newBank(64)
	if b.content != nil || b.location != nil {
		t.Fatal("permutation maps materialized before any swap")
	}
	if b.ContentAt(5) != 5 || b.LocationOf(9) != 9 {
		t.Error("implicit identity broken")
	}
	if !b.IsIdentity() || b.DisplacedRows() != 0 {
		t.Error("fresh bank not identity")
	}
	if err := b.VerifyPermutation(); err != nil {
		t.Errorf("VerifyPermutation on implicit identity: %v", err)
	}
	b.SwapContents(2, 7)
	if b.content == nil {
		t.Fatal("SwapContents did not materialize the maps")
	}
	if b.ContentAt(2) != 7 || b.LocationOf(7) != 2 {
		t.Error("swap lost on materialized maps")
	}
	if b.IsIdentity() || b.DisplacedRows() != 2 {
		t.Error("displacement not reflected")
	}
}

func TestCountersAndTouchedWindowReset(t *testing.T) {
	b := newBank(32)
	if b.ACTCount(3) != 0 {
		t.Error("ACTCount non-zero on a fresh bank")
	}
	tm := testTiming()
	b.Access(3, false, 0, &tm)
	b.Access(3, false, 1000, &tm)
	b.Access(9, false, 2000, &tm)
	if b.ACTCount(3) != 2 || b.ACTCount(9) != 1 {
		t.Errorf("counts = %d/%d, want 2/1", b.ACTCount(3), b.ACTCount(9))
	}
	if len(b.touched) != 2 {
		t.Errorf("touched = %v, want the 2 activated slots", b.touched)
	}
	b.StartNewWindow()
	if b.ACTCount(3) != 0 || b.ACTCount(9) != 0 || len(b.touched) != 0 {
		t.Error("window reset missed touched slots")
	}
	// Counting resumes cleanly under the new epoch.
	b.Access(9, false, 3000, &tm)
	if b.ACTCount(9) != 1 {
		t.Errorf("post-reset count = %d, want 1", b.ACTCount(9))
	}
}

// TestMaxGroupACT pins the group sweep the Hydra derivation bound reads:
// groups are aligned runs of groupRows slots (127 and 128 are in
// different groups, the last group may be partial), touch order does
// not matter, the rank's shared scratch is all zero between calls and
// across banks, and a window roll starts every group from zero.
func TestMaxGroupACT(t *testing.T) {
	tm := testTiming()
	st := takeRankState(2, 300) // groups of 128: 0..127, 128..255, 256..299
	b, other := bankFromState(st, 0), bankFromState(st, 1)
	now := Cycles(0)
	act := func(b *Bank, slots ...RowID) {
		for _, s := range slots {
			b.Activate(s, now, &tm)
			now += tm.TRC
		}
	}
	scratchZero := func(when string) {
		t.Helper()
		for g, v := range st.groupSums {
			if v != 0 {
				t.Fatalf("%s: scratch group %d holds %d, want 0", when, g, v)
			}
		}
	}

	act(b, 127, 128, 127, 128, 127)
	if got := b.MaxGroupACT(128); got != 3 {
		t.Fatalf("slots 127 (3 ACTs) and 128 (2 ACTs): MaxGroupACT = %d, want 3 (different groups)", got)
	}
	scratchZero("after the first sweep")

	// Groups 0 and 1 reach 6 each and the partial group 2 reaches 4+4,
	// touched out of slot order.
	act(b, 299, 0, 256, 200, 299, 256, 0, 299, 256, 200, 127, 299, 256, 200, 128)
	for i := 0; i < 2; i++ {
		if got := b.MaxGroupACT(128); got != 8 {
			t.Fatalf("call %d: MaxGroupACT = %d, want 8 (the partial last group)", i, got)
		}
		scratchZero("between calls")
	}
	if got, _ := b.MaxWindowACT(); b.MaxGroupACT(1) != got {
		t.Errorf("MaxGroupACT(1) = %d, want MaxWindowACT %d", b.MaxGroupACT(1), got)
	}
	if got := b.MaxGroupACT(300); got != uint32(b.WindowACTs()) {
		t.Errorf("one group over the bank: MaxGroupACT = %d, want WindowACTs %d", got, b.WindowACTs())
	}

	// The other bank shares the scratch but none of b's counts.
	act(other, 5)
	if got := other.MaxGroupACT(128); got != 1 {
		t.Errorf("second bank of the rank: MaxGroupACT = %d, want 1", got)
	}
	scratchZero("after the second bank's sweep")

	b.StartNewWindow()
	if got := b.MaxGroupACT(128); got != 0 {
		t.Fatalf("after a window roll: MaxGroupACT = %d, want 0", got)
	}
	act(b, 299)
	if got := b.MaxGroupACT(128); got != 1 {
		t.Errorf("one ACT after the roll: MaxGroupACT = %d, want 1", got)
	}
	scratchZero("after the roll")
}

// TestEpochCountersAcrossWindowRoll is the SoA analogue of PR 6's
// "dirty banks must not pool" regression: a bank left dirty when a
// refresh window rolls must report zero ACTCount for every untouched
// slot — including the slots the *previous* window stamped, whose stale
// packed counts still sit in the slots array — and must not leak stale
// touched-list entries into the new window's sweeps.
func TestEpochCountersAcrossWindowRoll(t *testing.T) {
	b := newBank(64)
	tm := testTiming()
	for i := 0; i < 40; i++ {
		b.Access(RowID(i%5), false, Cycles(i)*tm.TRC, &tm)
	}
	if c, _ := b.MaxWindowACT(); c != 8 {
		t.Fatalf("pre-roll MaxWindowACT = %d, want 8", c)
	}
	b.StartNewWindow() // roll with slots 0..4 dirty (counts left in storage)

	for s := RowID(0); s < 64; s++ {
		if c := b.ACTCount(s); c != 0 {
			t.Fatalf("slot %d reads %d after window roll, want 0 (stale stamp leaked)", s, c)
		}
	}
	if len(b.touched) != 0 {
		t.Fatalf("touched = %v after window roll, want empty", b.touched)
	}
	b.Access(2, false, 0, &tm) // slot 2 was dirty last window
	if c := b.ACTCount(2); c != 1 {
		t.Fatalf("slot 2 reads %d after one post-roll ACT, want 1 (stale count revived)", c)
	}
	if c, s := b.MaxWindowACT(); c != 1 || s != 2 {
		t.Fatalf("post-roll MaxWindowACT = %d@%d, want 1@2", c, s)
	}
	if got := b.VictimSlots(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("post-roll VictimSlots = %v, want [2]", got)
	}
}

// TestRecycledCountersReadClean pins the pooled-reuse half of the epoch
// scheme: a rankState handed back dirty (mid-window counts, stale
// touched lists) must read all-zero to its next owner with no clearing
// pass — the new bank resumes above the segment's high-water epoch.
func TestRecycledCountersReadClean(t *testing.T) {
	b := newBank(128)
	tm := testTiming()
	for i := 0; i < 50; i++ {
		b.Access(RowID(i%7), false, Cycles(i)*tm.TRC, &tm)
	}
	b.StartNewWindow()
	b.Access(99, false, 0, &tm)
	st := b.state
	b.recycle()
	if b.slots != nil || b.touched != nil || b.state != nil {
		t.Fatal("recycle left storage attached")
	}
	reused := bankFromState(st, 0)
	if reused.epoch <= st.bankEpoch[0] {
		t.Fatalf("reused bank epoch %d not above segment high-water %d",
			reused.epoch, st.bankEpoch[0])
	}
	for s := RowID(0); s < 128; s++ {
		if v := reused.ACTCount(s); v != 0 {
			t.Fatalf("reused bank reads count %d at slot %d, want 0", v, s)
		}
	}
	if len(reused.touched) != 0 {
		t.Fatalf("reused bank inherited touched list %v", reused.touched)
	}
}

// TestEpochWrapClearsSlots covers the epoch wraparound guard: a wrapped
// generation must not let ancient stamps alias the new epoch.
func TestEpochWrapClearsSlots(t *testing.T) {
	b := newBank(16)
	tm := testTiming()
	b.Access(4, false, 0, &tm)
	b.epoch = epochLimit - 1 // force the next roll to wrap
	b.slots[4] = b.epoch<<epochShift | 77
	b.StartNewWindow()
	if b.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", b.epoch)
	}
	for s := RowID(0); s < 16; s++ {
		if v := b.ACTCount(s); v != 0 {
			t.Fatalf("slot %d reads %d after epoch wrap, want 0", s, v)
		}
	}
}

func TestRecycledPermutationMapsAreIdentity(t *testing.T) {
	// A bank whose swaps were fully unwound leaves its permutation
	// segment marked identity-valid; a bank with displaced rows must
	// not. Either way every later materialize must observe the identity
	// mapping.
	unwound := newBank(64)
	unwound.SwapContents(3, 9)
	unwound.SwapContents(3, 9)
	if unwound.displaced != 0 {
		t.Fatalf("displaced = %d after unwinding, want 0", unwound.displaced)
	}
	stU := unwound.state
	unwound.recycle()
	if !stU.permIdentity[0] {
		t.Fatal("unwound bank's segment not marked identity-valid")
	}

	// A bank recycled with displaced rows is repaired slot-by-slot from
	// its dirty list, so its segment is identity-valid afterwards too.
	dirty := newBank(64)
	dirty.SwapContents(1, 2)
	dirty.SwapContents(2, 5)
	if dirty.displaced != 3 {
		t.Fatalf("displaced = %d after chained swaps, want 3", dirty.displaced)
	}
	stD := dirty.state
	dirty.recycle()
	if !stD.permIdentity[0] {
		t.Fatal("displaced bank's segment not repaired to identity by recycle")
	}
	repaired := bankFromState(stD, 0)
	repaired.materialize()
	if !repaired.IsIdentity() {
		t.Fatal("repaired segment is not the identity")
	}
	if err := repaired.VerifyPermutation(); err != nil {
		t.Fatalf("repaired segment: %v", err)
	}

	// Past the dirty-list cap the repair falls back to marking the
	// segment invalid, and the next materialize refills it.
	overflowed := bankFromState(repaired.state, 0)
	for i := 0; i < 64; i++ { // 4 entries/swap over a 64-row bank: overflows
		overflowed.SwapContents(RowID(i%32), RowID((i+11)%32))
	}
	if !overflowed.permDirtyOverflow {
		t.Fatal("dirty list never hit its cap")
	}
	stO := overflowed.state
	wasDisplaced := overflowed.displaced > 0
	overflowed.recycle()
	if wasDisplaced && stO.permIdentity[0] {
		t.Fatal("overflowed displaced segment marked identity-valid")
	}
	refilled := bankFromState(stO, 0)
	refilled.materialize()
	if !refilled.IsIdentity() {
		t.Fatal("materialize over an overflowed segment did not refill the identity")
	}

	for trial := 0; trial < 4; trial++ {
		b := newBank(64)
		b.materialize()
		if !b.IsIdentity() {
			t.Fatalf("trial %d: materialize produced a non-identity map", trial)
		}
		if err := b.VerifyPermutation(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b.SwapContents(7, 8)
		b.SwapContents(7, 8)
		b.recycle()
	}
}

// refBank is a map-based oracle for one bank's refresh-window counts.
type refBank struct {
	counts map[RowID]uint32
	order  []RowID // slots in order of first activation this window
	acts   uint64
}

func (r *refBank) act(slot RowID) {
	if r.counts[slot] == 0 {
		r.order = append(r.order, slot)
	}
	r.counts[slot]++
	r.acts++
}

func (r *refBank) roll() {
	r.counts = map[RowID]uint32{}
	r.order = r.order[:0]
	r.acts = 0
}

// checkBank compares every counter reader of b against the oracle.
// act records one more activation in both before each reader, so every
// reader meets a pending log it must settle itself.
func checkBank(t *testing.T, where string, b *Bank, r *refBank, rng *stats.RNG, act func()) {
	t.Helper()
	act()
	if got := b.WindowACTs(); got != r.acts {
		t.Fatalf("%s: WindowACTs = %d, want %d", where, got, r.acts)
	}
	for i := 0; i < 4; i++ {
		act()
		slot := RowID(rng.Intn(b.rows))
		if len(r.order) > 0 && i%2 == 0 {
			slot = r.order[rng.Intn(len(r.order))]
		}
		if got := b.ACTCount(slot); got != r.counts[slot] {
			t.Fatalf("%s: ACTCount(%d) = %d, want %d", where, slot, got, r.counts[slot])
		}
	}
	act()
	var maxC uint32
	var maxS RowID
	for _, s := range r.order { // first slot to reach the maximum wins
		if r.counts[s] > maxC {
			maxC, maxS = r.counts[s], s
		}
	}
	if c, s := b.MaxWindowACT(); c != maxC || s != maxS {
		t.Fatalf("%s: MaxWindowACT = %d@%d, want %d@%d", where, c, s, maxC, maxS)
	}
	for _, g := range []int{128, 7} {
		act()
		sums := map[int]uint32{}
		var best uint32
		for s, c := range r.counts {
			sums[int(s)/g] += c
			best = max(best, sums[int(s)/g])
		}
		if got := b.MaxGroupACT(g); got != best {
			t.Fatalf("%s: MaxGroupACT(%d) = %d, want %d", where, g, got, best)
		}
	}
	act()
	trh := uint32(rng.Intn(8) + 1)
	var want []RowID
	for s, c := range r.counts {
		if c >= trh {
			want = append(want, s)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if got := b.VictimSlots(trh); !slices.Equal(got, want) {
		t.Fatalf("%s: VictimSlots(%d) = %v, want %v", where, trh, got, want)
	}
}

// TestDeferredCountsMatchReference interleaves activations with
// mid-window reads of every counter reader, across window rolls, an
// epoch wrap, Memory.Recycle and reuse of the recycled rank states, and
// checks each read against a map-based counter. Windows run past
// pendingLimit activations per bank, so logs also settle on their own.
func TestDeferredCountsMatchReference(t *testing.T) {
	geo := config.Geometry{Channels: 1, RanksPerCh: 2, BanksPerRnk: 2, RowsPerBank: 512, RowBytes: 8192, LineBytes: 64}
	tm := testTiming()
	rng := stats.NewRNG(31)
	m := NewMemory(geo, tm)
	var now Cycles
	for gen := 0; gen < 3; gen++ {
		refs := make([]refBank, m.NumBanks())
		for i := range refs {
			refs[i].roll()
		}
		access := func(i int, slot RowID) {
			now += tm.TRC
			m.Bank(i).Access(slot, slot%3 == 0, now, &tm)
			refs[i].act(slot)
		}
		poke := func(i int) func() {
			return func() { access(i, RowID(rng.Intn(16))) }
		}
		windows := 20
		if gen == 1 {
			windows = epochLimit + 10 // every bank's epoch wraps once
		}
		for w := 0; w < windows; w++ {
			acts := rng.Intn(40)
			if w%7 == 0 {
				acts = 6 * pendingLimit // ~1.5 logs per bank
			}
			for a := 0; a < acts; a++ {
				i := rng.Intn(m.NumBanks())
				slot := RowID(rng.Intn(geo.RowsPerBank))
				if rng.Intn(2) == 0 {
					slot = RowID(rng.Intn(12)) // hot slots reach VictimSlots' thresholds
				}
				access(i, slot)
				if rng.Intn(500) == 0 {
					checkBank(t, fmt.Sprintf("gen %d window %d mid", gen, w), m.Bank(i), &refs[i], rng, poke(i))
				}
			}
			var wantMax uint32
			for i := range refs {
				if n := len(m.Bank(i).pending); n >= pendingLimit {
					t.Fatalf("gen %d window %d: bank %d holds %d pending activations, limit %d", gen, w, i, n, pendingLimit)
				}
				for _, c := range refs[i].counts {
					wantMax = max(wantMax, c)
				}
			}
			if c, _, _ := m.MaxWindowACT(); c != wantMax {
				t.Fatalf("gen %d window %d: Memory.MaxWindowACT = %d, want %d", gen, w, c, wantMax)
			}
			for i := range refs {
				checkBank(t, fmt.Sprintf("gen %d window %d end bank %d", gen, w, i), m.Bank(i), &refs[i], rng, poke(i))
			}
			// Leave unsettled activations behind for the roll (and, in
			// the last window, for Recycle).
			for a := 0; a < 50; a++ {
				i := rng.Intn(m.NumBanks())
				now += tm.TRC
				m.Bank(i).Access(RowID(a%9), false, now, &tm)
			}
			if w < windows-1 {
				m.StartNewWindow()
				for i := range refs {
					refs[i].roll()
				}
			}
		}
		states := slices.Clone(m.ranks)
		m.Recycle()
		for r, st := range states {
			for i := range st.pending {
				if len(st.pending[i]) != 0 || len(st.touched[i]) != 0 {
					t.Fatalf("gen %d: rank %d bank %d recycled with %d pending, %d touched entries",
						gen, r, i, len(st.pending[i]), len(st.touched[i]))
				}
			}
		}
		// Rebuild from exactly the recycled states (the pool may hand
		// out others), forcing one bank's resume epoch to wrap.
		states[1].bankEpoch[0] = epochLimit - 1
		m = &Memory{geo: geo, timing: tm, banks: make([]*Bank, len(states)*geo.BanksPerRnk), ranks: states}
		for r, st := range states {
			for i := 0; i < geo.BanksPerRnk; i++ {
				m.banks[r*geo.BanksPerRnk+i] = bankFromState(st, i)
			}
		}
	}
}
