package tracker

import "math/bits"

// MisraGries is a per-bank frequent-item tracker with the Space-Saving
// eviction rule, the practical realization of the Misra-Gries guarantee
// used by Graphene and RRS. With capacity >= ACT_max / T_S per bank it
// never misses a row whose true count reaches T_S (counts are
// overestimates, so detection errs on the secure side).
type MisraGries struct {
	banks []ssBank
	cap   int
}

// NewMisraGries returns a tracker covering numBanks banks, each with the
// given entry capacity (ceil(ACT_max / T_S) in the paper's sizing).
func NewMisraGries(numBanks, capacity int) *MisraGries {
	if capacity < 1 {
		capacity = 1
	}
	return &MisraGries{banks: make([]ssBank, numBanks), cap: capacity}
}

// Name implements Tracker.
func (t *MisraGries) Name() string { return "misra-gries" }

// Capacity returns the per-bank entry capacity.
func (t *MisraGries) Capacity() int { return t.cap }

// RecordACT implements Tracker. Misra-Gries lives entirely in SRAM, so
// extraMem is always zero.
func (t *MisraGries) RecordACT(bankIdx int, row int32) (int, int) {
	return t.banks[bankIdx].record(row, t.cap), 0
}

// ResetRow implements Tracker.
func (t *MisraGries) ResetRow(bankIdx int, row int32) {
	t.banks[bankIdx].remove(row)
}

// Reset implements Tracker.
func (t *MisraGries) Reset() {
	for i := range t.banks {
		t.banks[i].clear()
	}
}

// Count returns the current estimate for a row (0 if untracked).
func (t *MisraGries) Count(bankIdx int, row int32) int {
	b := &t.banks[bankIdx]
	if id, ok := b.lookup(row); ok {
		return b.nodes[id].count
	}
	return 0
}

// ssBank is one bank's Space-Saving structure: a min-heap on counts.
//
// The tracker records one update per DRAM activation, so this is one of
// the hottest structures in the simulator. The heap is hand-rolled with
// one level of indirection: entry data lives in stable node slots
// (nodes), and the heap permutes only node ids (heapArr/pos). Sifting
// therefore swaps two int32s per step instead of moving entries and
// rewriting the row->position map. The sift order replicates
// container/heap's up/down/Fix exactly — same comparisons, same swap
// sequence — so the heap reaches the same permutation and evicts the
// same victims as the previous container/heap implementation, keeping
// simulation results bit-identical.
//
// Row membership (index) is a small open-addressed hash table sized to
// the capacity, not to the bank: with one update per DRAM activation,
// map hashing is a visible profile cost, and a direct row-indexed
// array (128K entries per bank) would miss the host cache every time.
// The table holds a power of two >= 2x capacity slots (a few KB), is
// allocated when the bank first records, probes linearly and deletes
// by backward shift, so it never accumulates tombstones and its
// occupied slots are at all times exactly the resident rows.
// counts mirrors each heap position's count (counts[i] ==
// nodes[heapArr[i]].count at all times): the sift comparisons then read
// one contiguous array instead of chasing heapArr into nodes — two
// dependent loads per comparison on the hottest tracker path.
type ssBank struct {
	nodes   []ssEntry // node id -> entry (stable while resident)
	heapArr []int32   // heap position -> node id
	counts  []int32   // heap position -> that node's count (mirror)
	pos     []int32   // node id -> heap position
	index   []ssSlot  // open-addressed row -> node id table
	shift   uint8     // 32 - log2(len(index)), for hashing
}

// ssSlot is one index table slot: a resident row and its node id + 1
// (0 = empty slot).
type ssSlot struct {
	row int32
	id1 int32
}

// home returns row's preferred slot: Fibonacci hashing spreads the
// clustered row numbers of real traces across the table.
func (b *ssBank) home(row int32) int {
	return int(uint32(row) * 0x9e3779b9 >> b.shift)
}

// find returns the index slot holding row, or the empty slot where the
// probe for it ended.
func (b *ssBank) find(row int32) (int, bool) {
	mask := len(b.index) - 1
	for i := b.home(row); ; i = (i + 1) & mask {
		s := b.index[i]
		if s.id1 == 0 {
			return i, false
		}
		if s.row == row {
			return i, true
		}
	}
}

func (b *ssBank) lookup(row int32) (int32, bool) {
	if b.index == nil {
		return 0, false
	}
	if i, ok := b.find(row); ok {
		return b.index[i].id1 - 1, true
	}
	return 0, false
}

// setID maps row to node id, inserting the row if it is absent.
func (b *ssBank) setID(row, id int32) {
	i, _ := b.find(row)
	b.index[i] = ssSlot{row: row, id1: id + 1}
}

// unindex deletes a resident row by backward shift: each later entry
// of the probe run moves into the hole unless its home lies cyclically
// in (hole, entry], where moving it would put it before its home.
func (b *ssBank) unindex(row int32) {
	mask := len(b.index) - 1
	hole, _ := b.find(row)
	for j := (hole + 1) & mask; b.index[j].id1 != 0; j = (j + 1) & mask {
		if h := b.home(b.index[j].row); (j-h)&mask >= (j-hole)&mask {
			b.index[hole] = b.index[j]
			hole = j
		}
	}
	b.index[hole] = ssSlot{}
}

// init allocates the index on the bank's first record.
func (b *ssBank) init(capacity int) {
	n := 2 // a power of two >= 2*capacity, so probes stay short
	for n < 2*capacity {
		n <<= 1
	}
	b.index = make([]ssSlot, n)
	b.shift = uint8(32 - bits.TrailingZeros(uint(n)))
}

type ssEntry struct {
	row   int32
	count int
}

func (b *ssBank) less(i, j int32) bool {
	return b.counts[i] < b.counts[j]
}

func (b *ssBank) swap(i, j int32) {
	b.heapArr[i], b.heapArr[j] = b.heapArr[j], b.heapArr[i]
	b.counts[i], b.counts[j] = b.counts[j], b.counts[i]
	b.pos[b.heapArr[i]] = i
	b.pos[b.heapArr[j]] = j
}

func (b *ssBank) up(j int32) {
	for j > 0 {
		i := (j - 1) / 2
		if !b.less(j, i) {
			break
		}
		b.swap(i, j)
		j = i
	}
}

func (b *ssBank) down(i0, n int32) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && b.less(j2, j1) {
			j = j2
		}
		if !b.less(j, i) {
			break
		}
		b.swap(i, j)
		i = j
	}
	return i > i0
}

func (b *ssBank) fix(i int32) {
	if !b.down(i, int32(len(b.heapArr))) {
		b.up(i)
	}
}

func (b *ssBank) record(row int32, capacity int) int {
	if b.index == nil {
		b.init(capacity)
	}
	slot, ok := b.find(row)
	if ok {
		id := b.index[slot].id1 - 1
		c := b.nodes[id].count + 1
		b.nodes[id].count = c
		p := b.pos[id]
		b.counts[p] = int32(c)
		b.fix(p) // may move the entry; c is captured beforehand
		return c
	}
	if len(b.nodes) < capacity {
		id := int32(len(b.nodes))
		b.nodes = append(b.nodes, ssEntry{row: row, count: 1})
		b.heapArr = append(b.heapArr, id)
		b.counts = append(b.counts, 1)
		b.pos = append(b.pos, id)
		b.index[slot] = ssSlot{row: row, id1: id + 1}
		b.up(id)
		return 1
	}
	// Space-Saving: replace the minimum entry; the newcomer inherits
	// min+1 (an overestimate bounded by the evicted count). Deleting the
	// victim's row may shift entries, so the newcomer probes afresh.
	id := b.heapArr[0]
	min := &b.nodes[id]
	b.unindex(min.row)
	min.row = row
	min.count++
	c := min.count
	b.counts[0] = int32(c)
	b.setID(row, id)
	b.fix(0)
	return c
}

func (b *ssBank) remove(row int32) {
	id, ok := b.lookup(row)
	if !ok {
		return
	}
	b.unindex(row)
	// Detach from the heap (container/heap.Remove semantics: move the
	// last element into the hole, then fix).
	n := int32(len(b.heapArr)) - 1
	if i := b.pos[id]; i != n {
		b.swap(i, n)
		b.heapArr = b.heapArr[:n]
		b.counts = b.counts[:n]
		if !b.down(i, n) {
			b.up(i)
		}
	} else {
		b.heapArr = b.heapArr[:n]
		b.counts = b.counts[:n]
	}
	// Free the node slot by moving the last node into it.
	last := int32(len(b.nodes)) - 1
	if id != last {
		b.nodes[id] = b.nodes[last]
		b.heapArr[b.pos[last]] = id
		b.pos[id] = b.pos[last]
		b.setID(b.nodes[id].row, id)
	}
	b.nodes = b.nodes[:last]
	b.pos = b.pos[:last]
}

func (b *ssBank) clear() {
	clear(b.index)
	b.nodes = b.nodes[:0]
	b.heapArr = b.heapArr[:0]
	b.counts = b.counts[:0]
	b.pos = b.pos[:0]
}
