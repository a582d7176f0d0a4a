// Package trace generates the memory-access streams that drive the
// performance simulator.
//
// The paper evaluates 78 workloads (SPEC CPU2006/2017, GAP, PARSEC,
// BIOBENCH, COMMERCIAL, GUPS, and 6 mixes) using Pin-captured traces
// filtered through an L1/L2 cache model. Those traces are proprietary, so
// this package substitutes parametric synthetic generators: each
// benchmark is described by a Profile capturing the properties that
// matter to row-swap mitigations — memory intensity, footprint,
// row-activation locality (Zipf), read/write mix, spatial locality, and
// the presence of "hot rows" that accumulate hundreds of activations
// within a refresh window (the behaviour Fig. 14's left panel isolates).
//
// Records model post-L2 traffic: Gap counts the non-memory instructions
// retired between successive L2-miss accesses, exactly as USIMM traces do.
package trace

import (
	"math"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/stats"
)

// Record is one entry of a core's access stream. Field order groups the
// word-sized fields first so the three flag bytes share one padding
// tail: records are copied through the cores' slabs by value, so the 8
// bytes saved per record are real cache-bandwidth savings on the hot
// path. Memoized streams hold records packed (packedRecord) instead.
type Record struct {
	// Gap is the number of non-memory instructions the core retires
	// before issuing this access.
	Gap int
	// Addr is the physical byte address (line aligned).
	Addr uint64

	// Loc caches the DRAM decomposition of Addr. The synthetic
	// generator composes every address from a (bank, row, column)
	// triple it already holds, so it fills Loc for free and the
	// simulator skips one dram.DecodeAddr per access (~10% of a
	// figure-sweep's runtime). HasLoc marks it valid; records parsed
	// from text traces leave it unset and are decoded on demand.
	// When set, Loc must equal dram.DecodeAddr(geo, Addr) under the
	// geometry the stream was built for — EncodeLoc and DecodeAddr are
	// exact inverses (see dram's round-trip property test), which is
	// what makes the cached and decoded paths interchangeable.
	Loc dram.Location

	// Write marks stores (dirty fills / writebacks at the LLC level).
	Write bool
	// NoAlloc marks streaming accesses that bypass the LLC (modelling
	// the conflict/stream misses that let a row be activated repeatedly
	// in real traces even though its footprint would fit in cache).
	NoAlloc bool
	HasLoc  bool
}

// Stream produces an unbounded access stream for one core.
type Stream interface {
	// Next returns the next record. Streams are infinite; the simulator
	// stops after an instruction budget.
	Next() Record
	// Name identifies the generating benchmark.
	Name() string
}

// BatchStream is a Stream that can also fill records in bulk. The
// simulator's core consumes records by slab index (cpu.Core keeps a
// reusable record slab and refills it with one NextBatch call instead
// of paying one interface dispatch plus one Record copy per access),
// which is the hot-path contract of the event kernel. Batch boundaries
// are not semantic: interleaving Next and NextBatch calls in any way
// must yield the same record sequence (TestNextBatchMatchesNext pins
// this for every profile).
type BatchStream interface {
	Stream
	// NextBatch fills dst from the stream and returns the number of
	// records written. Streams are infinite, so for a non-empty dst the
	// return is at least 1; it may be less than len(dst) (e.g. when a
	// memoized chunk boundary is reached), never 0.
	NextBatch(dst []Record) int
}

// Batched adapts any Stream to the BatchStream interface. Streams that
// already implement NextBatch (the synthetic generator, shared memoized
// streams) are returned unchanged; others — text-trace replay, any
// third-party Stream — are wrapped in a per-record Next() adapter so
// they keep working against the slab-consuming core without changes.
func Batched(s Stream) BatchStream {
	if b, ok := s.(BatchStream); ok {
		return b
	}
	return &nextAdapter{Stream: s}
}

// nextAdapter implements NextBatch for per-record Streams by looping
// Next. It preserves the stream's sequence exactly; only the call
// granularity changes.
type nextAdapter struct {
	Stream
}

func (a *nextAdapter) NextBatch(dst []Record) int {
	for i := range dst {
		dst[i] = a.Stream.Next()
	}
	return len(dst)
}

// Profile is a parametric description of one benchmark's memory
// behaviour.
type Profile struct {
	Name  string
	Suite string

	// AvgGap is the mean number of non-memory instructions between
	// post-L2 accesses (lower = more memory intensive).
	AvgGap int

	// FootprintRows is the number of distinct DRAM rows in the working
	// set; footprints far larger than the LLC produce DRAM traffic.
	FootprintRows int

	// RowZipf is the Zipf exponent of row popularity within the
	// footprint: 0 = uniform (GUPS-like), >1 = highly concentrated.
	RowZipf float64

	// WriteFrac is the fraction of accesses that are writes.
	WriteFrac float64

	// SeqRun is the expected number of successive lines read within a
	// row before jumping (spatial locality; 1 = random).
	SeqRun int

	// HotRows is the number of rows that receive concentrated,
	// cache-bypassing activations (zero for most workloads). HotFrac is
	// the fraction of accesses directed at them. These model the
	// >800-activation rows the paper's detailed plots isolate.
	HotRows int
	HotFrac float64
}

// MemoryIntensive reports whether the profile produces enough DRAM
// traffic for row-swap mitigations to matter.
func (p Profile) MemoryIntensive() bool { return p.AvgGap <= 40 && p.FootprintRows > 0 }

// generator implements Stream for a single Profile.
type generator struct {
	prof Profile
	geo  config.Geometry
	rng  *stats.RNG
	zipf *stats.Zipf
	gap  *stats.Geom // gap sampler (nil when AvgGap == 0)

	// rowOf maps Zipf rank -> (bank, row) so popular ranks are scattered
	// deterministically across banks.
	rowBank []uint8
	rowID   []int32

	hotBank []uint8
	hotRow  []int32
	hotCol  int

	// Geometry constants hoisted out of the per-record path.
	banksPerCh int
	lpr        int

	// The address of (bank b, row, col) is row*rowStride +
	// col*colStride + banks[b].base, and banks[b] also holds b's decoded
	// channel, rank and bank: dram.EncodeLoc's arithmetic with the
	// geometry folded in. expand reads only these and never writes
	// them, so readers of a memoized stream share them with the
	// generator that samples it.
	rowStride, colStride uint64
	banks                []bankPlace

	// packable is whether every record fits a packedRecord (see
	// packable). When not, NextBatch draws record by record through
	// Next and the stream cache bypasses the profile.
	packable bool

	curBank uint8
	curRow  int32
	curCol  int
	runLeft int

	// scratch holds a NextBatch slab's sampled records between its two
	// passes.
	scratch []packedRecord
}

// bankPlace is one flat bank's share of an address and its decoded
// coordinates.
type bankPlace struct {
	base                uint64
	channel, rank, bank int
}

// packedRecord is what the sampling pass draws for one record, 12 bytes
// against Record's 72: Addr and Loc are functions of (bank, row, col)
// under the stream's geometry, and HasLoc is always set. Memoized
// streams store records in this form. The gap fits when the profile's
// gap bound does (packable), the column when a row holds at most 2^16
// lines, and the bank is the generator's own uint8.
type packedRecord struct {
	gap   uint32
	row   int32
	col   uint16
	bank  uint8
	flags uint8
}

const (
	packedWrite uint8 = 1 << iota
	packedNoAlloc
)

// packable reports whether every record prof's generator can draw under
// geo fits a packedRecord: a row of at most 2^16 lines, and a gap bound
// within uint32.
func packable(prof Profile, geo config.Geometry) bool {
	return geo.LinesPerRow() <= 1<<16 && gapBound(prof) <= math.MaxUint32
}

// gapBound is the largest Gap prof's generator can draw. stats.Geom
// draws ⌈ln u / ln(1−p)⌉ with p = 1/(AvgGap+1), and RNG.Float64's
// smallest non-zero u is 2⁻⁵³, so this repeats that computation at
// u = 2⁻⁵³, operation for operation, and subtracts the 1 the generator
// does.
func gapBound(prof Profile) float64 {
	if prof.AvgGap <= 0 {
		return 0
	}
	p := 1 / float64(prof.AvgGap+1)
	return math.Ceil(math.Log(0x1p-53)/math.Log1p(-p)) - 1
}

// NewGenerator returns a deterministic Stream for prof over the given
// geometry, seeded independently per (workload, core). The result also
// implements BatchStream.
func NewGenerator(prof Profile, geo config.Geometry, seed uint64) Stream {
	return newGenerator(prof, geo, seed)
}

func newGenerator(prof Profile, geo config.Geometry, seed uint64) *generator {
	rng := stats.NewRNG(seed)
	g := &generator{
		prof:       prof,
		geo:        geo,
		rng:        rng,
		banksPerCh: geo.RanksPerCh * geo.BanksPerRnk,
		lpr:        geo.LinesPerRow(),
	}
	g.colStride = uint64(geo.BanksPerRnk*geo.Channels) * uint64(geo.LineBytes)
	g.rowStride = uint64(geo.RanksPerCh*g.lpr) * g.colStride
	g.packable = packable(prof, geo)
	g.banks = make([]bankPlace, geo.TotalBanks())
	for b := range g.banks {
		ch := b / g.banksPerCh
		rem := b % g.banksPerCh
		rank, bank := rem/geo.BanksPerRnk, rem%geo.BanksPerRnk
		g.banks[b] = bankPlace{
			base:    dram.EncodeLoc(geo, dram.Location{Channel: ch, Rank: rank, Bank: bank}),
			channel: ch, rank: rank, bank: bank,
		}
	}
	n := prof.FootprintRows
	if n <= 0 {
		n = 1
	}
	g.zipf = stats.NewZipf(rng.Split(), prof.RowZipf, n)
	if prof.AvgGap > 0 {
		g.gap = stats.NewGeom(rng, 1/float64(prof.AvgGap+1))
	}
	g.rowBank = make([]uint8, n)
	g.rowID = make([]int32, n)
	layout := rng.Split()
	for i := 0; i < n; i++ {
		g.rowBank[i] = uint8(layout.Intn(geo.TotalBanks()))
		g.rowID[i] = int32(layout.Intn(geo.RowsPerBank))
	}
	g.hotBank = make([]uint8, prof.HotRows)
	g.hotRow = make([]int32, prof.HotRows)
	for i := 0; i < prof.HotRows; i++ {
		g.hotBank[i] = uint8(layout.Intn(geo.TotalBanks()))
		g.hotRow[i] = int32(layout.Intn(geo.RowsPerBank))
	}
	return g
}

func (g *generator) Name() string { return g.prof.Name }

// place composes the address and the equivalent decoded location for a
// (flat bank, row, column) triple. Returning both lets Next cache the
// DRAM decomposition in the record instead of making the simulator
// re-derive it with dram.DecodeAddr on every access.
func (g *generator) place(bankIdx uint8, row int32, col int) (uint64, dram.Location) {
	geo := g.geo
	b := int(bankIdx)
	ch := b / g.banksPerCh
	rem := b % g.banksPerCh
	rank := rem / geo.BanksPerRnk
	bank := rem % geo.BanksPerRnk
	loc := dram.Location{
		Channel: ch, Rank: rank, Bank: bank, BankIdx: b, Row: row, Col: col,
	}
	return dram.EncodeLoc(geo, loc), loc
}

func (g *generator) Next() Record {
	p := &g.prof
	gap := 0
	if p.AvgGap > 0 {
		// Geometric-ish gap with the configured mean.
		gap = int(g.gap.Next()) - 1
	}
	write := g.rng.Float64() < p.WriteFrac

	// Hot-row stream: round-robin over the hot set, walking columns so
	// every access is a fresh line (and, under a closed page policy, a
	// fresh activation).
	if p.HotRows > 0 && g.rng.Float64() < p.HotFrac {
		i := g.hotCol % p.HotRows
		col := (g.hotCol / p.HotRows) % g.lpr
		g.hotCol++
		addr, loc := g.place(g.hotBank[i], g.hotRow[i], col)
		return Record{
			Gap:     gap,
			Write:   write,
			Addr:    addr,
			NoAlloc: true,
			Loc:     loc,
			HasLoc:  true,
		}
	}

	// Regular stream: continue a sequential run within the current row,
	// or start a new row drawn from the Zipf popularity distribution.
	if g.runLeft <= 0 || g.curCol >= g.lpr {
		rank := g.zipf.Next()
		g.curBank = g.rowBank[rank]
		g.curRow = g.rowID[rank]
		g.curCol = g.rng.Intn(g.lpr)
		run := 1
		if p.SeqRun > 1 {
			run = 1 + g.rng.Intn(2*p.SeqRun-1) // mean ~= SeqRun
		}
		g.runLeft = run
	}
	addr, loc := g.place(g.curBank, g.curRow, g.curCol)
	g.curCol++
	g.runLeft--
	return Record{Gap: gap, Write: write, Addr: addr, Loc: loc, HasLoc: true}
}

// NextBatch fills dst with the next len(dst) records of the stream in
// two passes: sample draws the records in their packed form, then
// expand composes each Record's Addr and cached Loc. A profile whose
// records do not pack is drawn through Next, record by record.
func (g *generator) NextBatch(dst []Record) int {
	n := len(dst)
	if !g.packable {
		for i := range dst {
			dst[i] = g.Next()
		}
		return n
	}
	if cap(g.scratch) < n {
		g.scratch = make([]packedRecord, n)
	}
	src := g.scratch[:n]
	g.sample(src)
	g.expand(dst, src)
	return n
}

// sample draws the next len(dst) records in packed form: gap/write/hot
// decisions and row selections in exactly the per-record order Next
// uses, so the sequence is bit-identical regardless of batch boundaries
// (the all-profiles differential test pins this). Keeping address
// composition out of this loop keeps its working set to the RNG state
// and the row tables.
func (g *generator) sample(dst []packedRecord) {
	p := &g.prof
	rng := g.rng
	lpr := g.lpr

	// Draw order per record matches Next exactly: gap, write, hot, then
	// on a new row {zipf rank, column, run}.
	for i := range dst {
		var gap uint32
		if p.AvgGap > 0 {
			gap = uint32(g.gap.Next() - 1)
		}
		var flags uint8
		if rng.Float64() < p.WriteFrac {
			flags = packedWrite
		}
		d := &dst[i]

		if p.HotRows > 0 && rng.Float64() < p.HotFrac {
			hi := g.hotCol % p.HotRows
			col := (g.hotCol / p.HotRows) % lpr
			g.hotCol++
			d.gap, d.row, d.col, d.bank, d.flags = gap, g.hotRow[hi], uint16(col), g.hotBank[hi], flags|packedNoAlloc
			continue
		}

		if g.runLeft <= 0 || g.curCol >= lpr {
			rank := g.zipf.Next()
			g.curBank = g.rowBank[rank]
			g.curRow = g.rowID[rank]
			g.curCol = rng.Intn(lpr)
			run := 1
			if p.SeqRun > 1 {
				run = 1 + rng.Intn(2*p.SeqRun-1) // mean ~= SeqRun
			}
			g.runLeft = run
		}
		d.gap, d.row, d.col, d.bank, d.flags = gap, g.curRow, uint16(g.curCol), g.curBank, flags
		g.curCol++
		g.runLeft--
	}
}

// expand writes the Record of each packed record in src to dst, which
// must be at least as long. It reads only the generator's geometry
// table, so any number of goroutines may expand through one generator
// while its owner samples. Fields are assigned one by one: building
// each Record as a composite literal measured several times slower
// per record (16 ns against 3–7 ns on a 2-vCPU Xeon).
func (g *generator) expand(dst []Record, src []packedRecord) {
	dst = dst[:len(src)]
	rowStride, colStride, banks := g.rowStride, g.colStride, g.banks
	for i := range src {
		s := &src[i]
		bp := &banks[s.bank]
		r := &dst[i]
		r.Gap = int(s.gap)
		r.Addr = uint64(s.row)*rowStride + uint64(s.col)*colStride + bp.base
		r.Loc.Channel = bp.channel
		r.Loc.Rank = bp.rank
		r.Loc.Bank = bp.bank
		r.Loc.BankIdx = int(s.bank)
		r.Loc.Row = s.row
		r.Loc.Col = int(s.col)
		r.Write = s.flags&packedWrite != 0
		r.NoAlloc = s.flags&packedNoAlloc != 0
		r.HasLoc = true
	}
}
