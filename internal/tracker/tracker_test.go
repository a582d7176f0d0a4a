package tracker

import (
	"container/heap"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestMisraGriesExactWhenUnderCapacity(t *testing.T) {
	mg := NewMisraGries(2, 100)
	for i := 0; i < 50; i++ {
		c, extra := mg.RecordACT(0, 7)
		if extra != 0 {
			t.Fatal("MG should never touch memory")
		}
		if c != i+1 {
			t.Fatalf("count = %d after %d ACTs", c, i+1)
		}
	}
	if mg.Count(0, 7) != 50 {
		t.Errorf("Count = %d", mg.Count(0, 7))
	}
	if mg.Count(1, 7) != 0 {
		t.Error("banks should be independent")
	}
}

func TestMisraGriesOverestimatesNeverUnder(t *testing.T) {
	// Space-Saving property: estimate >= true count. A hot row hammered
	// among noise must always be detected at its threshold.
	mg := NewMisraGries(1, 64)
	rng := stats.NewRNG(9)
	trueCount := map[int32]int{}
	for i := 0; i < 100000; i++ {
		var row int32
		if rng.Float64() < 0.2 {
			row = 5 // hot row
		} else {
			row = int32(rng.Intn(100000)) + 100
		}
		trueCount[row]++
		got, _ := mg.RecordACT(0, row)
		if got < trueCount[row] {
			t.Fatalf("estimate %d below true count %d for row %d", got, trueCount[row], row)
		}
	}
	if mg.Count(0, 5) < trueCount[5] {
		t.Error("hot row undercounted")
	}
}

func TestMisraGriesResetRowAndReset(t *testing.T) {
	mg := NewMisraGries(1, 10)
	for i := 0; i < 5; i++ {
		mg.RecordACT(0, 3)
	}
	mg.ResetRow(0, 3)
	if mg.Count(0, 3) != 0 {
		t.Error("ResetRow did not clear")
	}
	c, _ := mg.RecordACT(0, 3)
	if c != 1 {
		t.Errorf("count after reset = %d, want 1", c)
	}
	mg.RecordACT(0, 4)
	mg.Reset()
	if mg.Count(0, 3) != 0 || mg.Count(0, 4) != 0 {
		t.Error("Reset did not clear all")
	}
}

func TestMisraGriesHeapInvariant(t *testing.T) {
	f := func(rows []uint8) bool {
		mg := NewMisraGries(1, 8)
		for _, r := range rows {
			mg.RecordACT(0, int32(r%32))
		}
		b := &mg.banks[0]
		// Heap order: parent <= children; id indirection and row index
		// consistent.
		at := func(i int) ssEntry { return b.nodes[b.heapArr[i]] }
		for i := range b.heapArr {
			l, r := 2*i+1, 2*i+2
			if l < len(b.heapArr) && at(l).count < at(i).count {
				return false
			}
			if r < len(b.heapArr) && at(r).count < at(i).count {
				return false
			}
			if b.pos[b.heapArr[i]] != int32(i) {
				return false
			}
			if id, ok := b.lookup(at(i).row); !ok || id != b.heapArr[i] {
				return false
			}
		}
		return len(b.heapArr) <= 8 && len(b.nodes) == len(b.heapArr) && len(b.pos) == len(b.heapArr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHydraGroupModeCheapPerRowModeCostly(t *testing.T) {
	h := NewHydra(1, 128*1024, 128, 100, 1024)
	// Below the group threshold: no memory traffic.
	extraTotal := 0
	for i := 0; i < 99; i++ {
		_, extra := h.RecordACT(0, 500)
		extraTotal += extra
	}
	if extraTotal != 0 {
		t.Errorf("group mode generated %d memory accesses", extraTotal)
	}
	if h.PerRowGroups(0) != 0 {
		t.Error("group transitioned too early")
	}
	// Crossing the threshold transitions the group (one counter write).
	_, extra := h.RecordACT(0, 500)
	if extra != 1 {
		t.Errorf("transition cost = %d, want 1", extra)
	}
	if h.PerRowGroups(0) != 1 {
		t.Error("group did not transition")
	}
	// First per-row access to a different row in the group: RCC miss.
	_, extra = h.RecordACT(0, 501)
	if extra < 1 {
		t.Error("RCC miss should cost a DRAM access")
	}
	// Subsequent accesses hit the RCC.
	_, extra = h.RecordACT(0, 501)
	if extra != 0 {
		t.Errorf("RCC hit cost = %d", extra)
	}
	if h.RCCHits == 0 || h.RCCMisses == 0 {
		t.Errorf("stats: hits=%d misses=%d", h.RCCHits, h.RCCMisses)
	}
}

func TestHydraCountsMonotonicallyTrackActivations(t *testing.T) {
	h := NewHydra(1, 1<<17, 128, 50, 1024)
	last := 0
	for i := 0; i < 300; i++ {
		c, _ := h.RecordACT(0, 42)
		if c < last {
			t.Fatalf("count went backwards: %d -> %d", last, c)
		}
		last = c
	}
	if last < 300 {
		t.Errorf("300 ACTs counted as %d (must not undercount the hot row)", last)
	}
}

func TestHydraRCCEvictionWritesBack(t *testing.T) {
	h := NewHydra(1, 1<<17, 128, 1, 4) // tiny RCC, instant per-row mode
	extras := 0
	// Touch many rows in per-row mode to force dirty evictions.
	for r := int32(0); r < 64; r++ {
		for j := 0; j < 3; j++ {
			_, e := h.RecordACT(0, r*128) // each row in its own group
			extras += e
		}
	}
	if extras <= 64 {
		t.Errorf("extras = %d; dirty evictions should add writebacks beyond the %d misses", extras, 64)
	}
}

func TestHydraResetRowAndReset(t *testing.T) {
	h := NewHydra(1, 1<<17, 128, 1, 64)
	for i := 0; i < 10; i++ {
		h.RecordACT(0, 9)
	}
	h.ResetRow(0, 9)
	c, _ := h.RecordACT(0, 9)
	if c != 1 {
		t.Errorf("count after ResetRow = %d, want 1", c)
	}
	h.Reset()
	if h.PerRowGroups(0) != 0 {
		t.Error("Reset did not restore group mode")
	}
}

func TestTrackerNames(t *testing.T) {
	if NewMisraGries(1, 1).Name() != "misra-gries" {
		t.Error("MG name")
	}
	if NewHydra(1, 128, 128, 1, 1).Name() != "hydra" {
		t.Error("Hydra name")
	}
}

// FuzzHydraInertBelowGroupThreshold pins the premise of deriving a
// Hydra-tracked run from its baseline: against an exact per-group
// counter, every ACT before any group reaches the group threshold gt
// returns extra == 0 and the group's count (so a count below gt), and
// the ACT that brings a group to gt returns extra == 1. The input is a
// stream of ACTs over two banks with window resets (byte pairs; a first
// byte of 0xff resets), a group size and a threshold.
func FuzzHydraInertBelowGroupThreshold(f *testing.F) {
	f.Add(uint8(127), uint8(2), []byte{0, 5, 0, 6, 1, 5, 0, 5})        // group 0 of bank 0 reaches gt 3
	f.Add(uint8(0), uint8(2), []byte{2, 0, 2, 0, 0xff, 0, 2, 0, 2, 0}) // a reset keeps row 256 below gt
	f.Add(uint8(127), uint8(1), []byte{6, 231, 6, 230})                // rows 999 and 998 fill the partial last group to gt 2
	f.Fuzz(func(t *testing.T, gs, gtByte uint8, ops []byte) {
		const rows = 1000 // not a multiple of most group sizes: a partial last group
		groupSize := int(gs)%128 + 1
		gt := int(gtByte)%64 + 1
		h := NewHydra(2, rows, groupSize, gt, 16)
		type group struct{ bank, g int }
		ref := map[group]int{}
		for i := 0; i+1 < len(ops); i += 2 {
			if ops[i] == 0xff {
				h.Reset()
				clear(ref)
				continue
			}
			bank := int(ops[i] & 1)
			row := (int(ops[i]>>1)<<8 | int(ops[i+1])) % rows
			k := group{bank, row / groupSize}
			ref[k]++
			count, extra := h.RecordACT(bank, int32(row))
			if ref[k] == gt {
				if extra != 1 {
					t.Fatalf("ACT %d (bank %d row %d) brought its group to gt %d: extra %d, want 1", i/2, bank, row, gt, extra)
				}
				return // the group is in per-row mode from here on
			}
			if extra != 0 || count != ref[k] {
				t.Fatalf("ACT %d (bank %d row %d) with every group below gt %d: (count %d, extra %d), want (%d, 0)",
					i/2, bank, row, gt, count, extra, ref[k])
			}
		}
	})
}

// refSpaceSaving is the Misra-Gries oracle: Space-Saving over
// container/heap, with a map[int32]int32 row -> heap position index.
// MisraGries must evict the same victims, so the reference keeps the
// heap operations container/heap defines (Push, Fix, Remove), which
// the hand-rolled sift replicates swap for swap.
type refSpaceSaving struct {
	entries []ssEntry
	index   map[int32]int32
}

func (r *refSpaceSaving) Len() int           { return len(r.entries) }
func (r *refSpaceSaving) Less(i, j int) bool { return r.entries[i].count < r.entries[j].count }
func (r *refSpaceSaving) Swap(i, j int) {
	r.entries[i], r.entries[j] = r.entries[j], r.entries[i]
	r.index[r.entries[i].row] = int32(i)
	r.index[r.entries[j].row] = int32(j)
}
func (r *refSpaceSaving) Push(x any) {
	e := x.(ssEntry)
	r.index[e.row] = int32(len(r.entries))
	r.entries = append(r.entries, e)
}
func (r *refSpaceSaving) Pop() any {
	e := r.entries[len(r.entries)-1]
	r.entries = r.entries[:len(r.entries)-1]
	delete(r.index, e.row)
	return e
}

func (r *refSpaceSaving) record(row int32, capacity int) int {
	if i, ok := r.index[row]; ok {
		r.entries[i].count++
		c := r.entries[i].count
		heap.Fix(r, int(i))
		return c
	}
	if len(r.entries) < capacity {
		heap.Push(r, ssEntry{row: row, count: 1})
		return 1
	}
	min := &r.entries[0]
	delete(r.index, min.row)
	min.row = row
	min.count++
	c := min.count
	r.index[row] = 0
	heap.Fix(r, 0)
	return c
}

func (r *refSpaceSaving) remove(row int32) {
	if i, ok := r.index[row]; ok {
		heap.Remove(r, int(i))
	}
}

func (r *refSpaceSaving) count(row int32) int {
	if i, ok := r.index[row]; ok {
		return r.entries[i].count
	}
	return 0
}

// checkIndex verifies the open-addressed index: it holds exactly the
// resident rows, each mapped to its node and reachable from its home
// slot without crossing an empty slot (what backward-shift deletion
// must preserve).
func checkIndex(t *testing.T, bank int, b *ssBank) {
	t.Helper()
	occupied := 0
	mask := len(b.index) - 1
	for i, s := range b.index {
		if s.id1 == 0 {
			continue
		}
		occupied++
		for j := b.home(s.row); j != i; j = (j + 1) & mask {
			if b.index[j].id1 == 0 {
				t.Fatalf("bank %d: row %d at slot %d is cut off from its home %d by empty slot %d", bank, s.row, i, b.home(s.row), j)
			}
		}
		if id := s.id1 - 1; int(id) >= len(b.nodes) || b.nodes[id].row != s.row {
			t.Fatalf("bank %d: slot %d maps row %d to node %d, which is not that row", bank, i, s.row, id)
		}
	}
	if occupied != len(b.nodes) {
		t.Fatalf("bank %d: index holds %d rows, tracker %d", bank, occupied, len(b.nodes))
	}
}

// mgOp is one tracker call of a fuzz input: kind 0-12 records the row,
// 13-14 resets it, 15 resets every count.
type mgOp struct {
	kind, bank int
	row        int32
}

// decodeMGOps decodes a fuzz input: a header of (banks 1-4, capacity
// 1-200, row span 2^0..2^17), then 3-byte ops. An op's first byte holds
// the bank (bits 0-1), the kind (bits 2-5) and the row's top bits (6-7).
func decodeMGOps(data []byte) (banks, capacity int, ops []mgOp) {
	if len(data) < 3 {
		return 0, 0, nil
	}
	banks, capacity = int(data[0])%4+1, int(data[1])%200+1
	span := 1 << (data[2] % 18)
	for i := 3; i+2 < len(data); i += 3 {
		b := data[i]
		row := (int(b>>6)<<16 | int(data[i+1])<<8 | int(data[i+2])) % span
		ops = append(ops, mgOp{kind: int(b>>2) & 15, bank: int(b&3) % banks, row: int32(row)})
	}
	return banks, capacity, ops
}

// wrapSeed builds an input over one bank of the given capacity (at
// least 4) whose probe chain wraps: rows L1, L2 hash to the index's last
// slot (so L2 lands in slot 0), Z to slot 0 (lands in 1) and O to slot 1
// (lands in 2). Resetting L1 shifts the whole chain back across the
// wrap; resetting Z must then leave O, already at its home, in place.
// Every row is re-recorded after each deletion, a newcomer evicts the
// minimum, and a final Reset empties the index.
func wrapSeed(capacity int) []byte {
	b := &ssBank{}
	b.init(capacity)
	homing := func(slot, k int) []int32 {
		var rows []int32
		for r := int32(0); len(rows) < k; r++ {
			if b.home(r) == slot {
				rows = append(rows, r)
			}
		}
		return rows
	}
	last := homing(len(b.index)-1, 2)
	l1, l2, z, o := last[0], last[1], homing(0, 1)[0], homing(1, 1)[0]
	data := []byte{0, byte(capacity - 1), 17}
	op := func(kind int, rows ...int32) {
		for _, row := range rows {
			data = append(data, byte(kind<<2)|byte(row>>16)<<6, byte(row>>8), byte(row))
		}
	}
	op(0, l1, l2, z, o, l1, l2, z, o)
	op(13, l1)
	op(0, l2, z, o, l1)
	op(13, z)
	op(0, o, l2, l1, z)
	op(0, homing(2, 1)[0], homing(len(b.index)-1, 3)[2])
	op(15, 0)
	op(0, o, l2)
	return data
}

// FuzzMisraGriesMatchesReference drives MisraGries and refSpaceSaving
// with the same RecordACT/ResetRow/Reset sequence: every returned count
// and every final Count must match, and the touched bank's index must
// be exact after every call.
func FuzzMisraGriesMatchesReference(f *testing.F) {
	f.Add([]byte{1, 7, 5, 0, 0, 1, 1, 0, 2, 0, 0, 1, 52, 0, 1, 0, 0, 3, 60, 0, 0})
	f.Add([]byte{3, 199, 17, 0, 1, 2, 65, 255, 255, 130, 0, 7, 195, 128, 0})
	f.Add(wrapSeed(4))
	f.Add(wrapSeed(5))
	f.Fuzz(func(t *testing.T, data []byte) {
		banks, capacity, ops := decodeMGOps(data)
		if banks == 0 {
			return
		}
		mg := NewMisraGries(banks, capacity)
		ref := make([]refSpaceSaving, banks)
		for i := range ref {
			ref[i].index = map[int32]int32{}
		}
		type key struct {
			bank int
			row  int32
		}
		seen := map[key]bool{}
		for n, op := range ops {
			seen[key{op.bank, op.row}] = true
			switch {
			case op.kind <= 12:
				got, extra := mg.RecordACT(op.bank, op.row)
				if want := ref[op.bank].record(op.row, capacity); got != want || extra != 0 {
					t.Fatalf("op %d: RecordACT(%d, %d) = (%d, %d), reference (%d, 0)", n, op.bank, op.row, got, extra, want)
				}
			case op.kind <= 14:
				mg.ResetRow(op.bank, op.row)
				ref[op.bank].remove(op.row)
			default:
				mg.Reset()
				for i := range ref {
					ref[i] = refSpaceSaving{index: map[int32]int32{}}
				}
			}
			checkIndex(t, op.bank, &mg.banks[op.bank])
		}
		for k := range seen {
			if got, want := mg.Count(k.bank, k.row), ref[k.bank].count(k.row); got != want {
				t.Errorf("Count(%d, %d) = %d, reference %d", k.bank, k.row, got, want)
			}
		}
	})
}
