package dram

import "testing"

// densePerm is the reference permutation: both directions stored in
// full, as arrays over every row.
type densePerm struct {
	content, location []RowID
}

func newDensePerm(rows int) *densePerm {
	d := &densePerm{content: make([]RowID, rows), location: make([]RowID, rows)}
	for i := range d.content {
		d.content[i], d.location[i] = RowID(i), RowID(i)
	}
	return d
}

func (d *densePerm) swap(a, b RowID) {
	la, lb := d.content[a], d.content[b]
	d.content[a], d.content[b] = lb, la
	d.location[la], d.location[lb] = b, a
}

// checkAgainstDense compares every reader of b's permutation with d.
func checkAgainstDense(t *testing.T, where string, b *Bank, d *densePerm) {
	t.Helper()
	displaced := 0
	for s := range d.content {
		slot := RowID(s)
		if got := b.ContentAt(slot); got != d.content[s] {
			t.Fatalf("%s: ContentAt(%d) = %d, want %d", where, slot, got, d.content[s])
		}
		if got := b.LocationOf(slot); got != d.location[s] {
			t.Fatalf("%s: LocationOf(%d) = %d, want %d", where, slot, got, d.location[s])
		}
		if d.content[s] != slot {
			displaced++
		}
	}
	if got := b.DisplacedRows(); got != displaced {
		t.Fatalf("%s: DisplacedRows = %d, want %d", where, got, displaced)
	}
	if got := b.IsIdentity(); got != (displaced == 0) {
		t.Fatalf("%s: IsIdentity = %v with %d rows displaced", where, got, displaced)
	}
	if err := b.VerifyPermutation(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
}

// FuzzSwapContentsMatchesDense runs fuzzed swaps, self-swaps, swap-backs
// and chains (a swap sharing a slot with the one before) over the two
// banks of a rank and checks the sparse permutation against a dense
// reference after every operation. It ends by recycling both banks:
// banks built on the recycled rank state must start at the identity.
func FuzzSwapContentsMatchesDense(f *testing.F) {
	f.Add(uint8(8), []byte{0, 1, 5, 2, 0, 0, 0, 1, 5})
	f.Add(uint8(64), []byte{0, 3, 9, 3, 0, 20, 3, 0, 41, 2, 0, 0, 4, 7, 7, 5, 7, 7})
	f.Add(uint8(1), []byte{0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, rowsIn uint8, ops []byte) {
		rows := 1 + int(rowsIn)
		st := takeRankState(2, rows)
		banks := []*Bank{bankFromState(st, 0), bankFromState(st, 1)}
		refs := []*densePerm{newDensePerm(rows), newDensePerm(rows)}
		last := [][2]RowID{{0, 0}, {0, 0}}
		for i := 0; i+2 < len(ops); i += 3 {
			kind, x, y := ops[i], RowID(int(ops[i+1])%rows), RowID(int(ops[i+2])%rows)
			bi := int(kind>>2) & 1
			a, b := x, y
			switch kind % 4 {
			case 1: // self-swap
				b = a
			case 2: // swap back the bank's last swap
				a, b = last[bi][0], last[bi][1]
			case 3: // chain: the last swap's second slot with a new one
				a = last[bi][1]
			}
			banks[bi].SwapContents(a, b)
			refs[bi].swap(a, b)
			last[bi] = [2]RowID{a, b}
			for k := range banks {
				checkAgainstDense(t, "after op "+string(rune('0'+kind%4)), banks[k], refs[k])
			}
		}
		for _, b := range banks {
			b.recycle()
		}
		for k := range banks {
			checkAgainstDense(t, "reused", bankFromState(st, k), newDensePerm(rows))
		}
	})
}

// TestVerifyPermutationRejectsCorruptMaps corrupts a valid sparse
// permutation in each way the maps can disagree and requires
// VerifyPermutation to notice.
func TestVerifyPermutationRejectsCorruptMaps(t *testing.T) {
	for name, corrupt := range map[string]func(b *Bank){
		"slot holds a row also at home": func(b *Bank) { b.content[9], b.location[4] = 4, 9; delete(b.location, 1) },
		"inverse disagrees":             func(b *Bank) { b.location[5] = 6 },
		"inverse missing":               func(b *Bank) { delete(b.location, 5) },
		"extra inverse entry":           func(b *Bank) { b.location[7] = 8 },
		"identity entry stored":         func(b *Bank) { b.content[7], b.location[7] = 7, 7 },
		"out of range":                  func(b *Bank) { b.content[1], b.location[99] = 99, 1; delete(b.location, 5) },
	} {
		b := newBank(16)
		b.SwapContents(1, 5)
		b.SwapContents(5, 9)
		if err := b.VerifyPermutation(); err != nil {
			t.Fatalf("%s: valid permutation rejected: %v", name, err)
		}
		corrupt(b)
		if b.VerifyPermutation() == nil {
			t.Errorf("%s: corrupt permutation accepted", name)
		}
	}
}
