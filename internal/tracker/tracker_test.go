package tracker

import (
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
			if b.ids[at(i).row] != b.heapArr[i]+1 {
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
