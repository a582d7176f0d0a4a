package dram

import (
	"fmt"

	"repro/internal/config"
)

// Memory aggregates all banks of the system and provides address
// decomposition. Bank index space is flat: channel-major, then rank,
// then bank.
type Memory struct {
	geo    config.Geometry
	timing Timing
	banks  []*Bank
	ranks  []*rankState // one SoA backing store per (channel, rank)
}

// NewMemory builds the full DRAM system described by geo. Bank state is
// allocated rank-at-a-time: each (channel, rank) gets one pooled
// rankState holding the packed activation counters and permutation
// storage of its banks contiguously (see rankState in dram.go).
func NewMemory(geo config.Geometry, t Timing) *Memory {
	n := geo.TotalBanks()
	m := &Memory{
		geo:    geo,
		timing: t,
		banks:  make([]*Bank, n),
		ranks:  make([]*rankState, geo.Channels*geo.RanksPerCh),
	}
	for r := range m.ranks {
		st := takeRankState(geo.BanksPerRnk, geo.RowsPerBank)
		m.ranks[r] = st
		for b := 0; b < geo.BanksPerRnk; b++ {
			m.banks[r*geo.BanksPerRnk+b] = bankFromState(st, b)
		}
	}
	return m
}

// Geometry returns the memory geometry.
func (m *Memory) Geometry() config.Geometry { return m.geo }

// Timing returns the converted timing parameters.
func (m *Memory) Timing() *Timing { return &m.timing }

// NumBanks returns the number of banks in the system.
func (m *Memory) NumBanks() int { return len(m.banks) }

// Bank returns the bank at flat index i.
func (m *Memory) Bank(i int) *Bank { return m.banks[i] }

// BankIndex computes the flat bank index for (channel, rank, bank).
func (m *Memory) BankIndex(ch, rank, bank int) int {
	return (ch*m.geo.RanksPerCh+rank)*m.geo.BanksPerRnk + bank
}

// Location identifies a DRAM location at row granularity plus the column
// (line-within-row) for access scheduling.
type Location struct {
	Channel int
	Rank    int
	Bank    int   // bank within rank
	BankIdx int   // flat bank index
	Row     RowID // logical row within bank
	Col     int   // line within row
}

// Decode maps a physical byte address to its DRAM location using a
// line-interleaved mapping: consecutive lines stride across channels,
// then banks, then columns within a row, then rows. This spreads traffic
// across banks while giving streaming accesses row locality.
//
// Address layout (line-granular, low to high):
//
//	[channel][bank][column][rank][row]
func (m *Memory) Decode(addr uint64) Location { return DecodeAddr(m.geo, addr) }

// Encode is the inverse of Decode: it produces a byte address (line
// aligned) for the given location.
func (m *Memory) Encode(loc Location) uint64 { return EncodeLoc(m.geo, loc) }

// DecodeAddr maps a physical byte address to a DRAM location under the
// given geometry. See Memory.Decode for the address layout.
func DecodeAddr(g config.Geometry, addr uint64) Location {
	line := addr / uint64(g.LineBytes)
	ch := int(line % uint64(g.Channels))
	line /= uint64(g.Channels)
	bank := int(line % uint64(g.BanksPerRnk))
	line /= uint64(g.BanksPerRnk)
	col := int(line % uint64(g.LinesPerRow()))
	line /= uint64(g.LinesPerRow())
	rank := int(line % uint64(g.RanksPerCh))
	line /= uint64(g.RanksPerCh)
	row := RowID(line % uint64(g.RowsPerBank))
	return Location{
		Channel: ch,
		Rank:    rank,
		Bank:    bank,
		BankIdx: (ch*g.RanksPerCh+rank)*g.BanksPerRnk + bank,
		Row:     row,
		Col:     col,
	}
}

// EncodeLoc produces the line-aligned byte address of a DRAM location
// under the given geometry. It is the inverse of DecodeAddr.
func EncodeLoc(g config.Geometry, loc Location) uint64 {
	line := uint64(loc.Row)
	line = line*uint64(g.RanksPerCh) + uint64(loc.Rank)
	line = line*uint64(g.LinesPerRow()) + uint64(loc.Col)
	line = line*uint64(g.BanksPerRnk) + uint64(loc.Bank)
	line = line*uint64(g.Channels) + uint64(loc.Channel)
	return line * uint64(g.LineBytes)
}

// RefreshRank issues an all-bank refresh to every bank of a rank.
func (m *Memory) RefreshRank(ch, rank int, now Cycles) {
	base := (ch*m.geo.RanksPerCh + rank) * m.geo.BanksPerRnk
	for b := 0; b < m.geo.BanksPerRnk; b++ {
		m.banks[base+b].Refresh(now, &m.timing)
	}
}

// StartNewWindow resets Row Hammer accounting in every bank.
func (m *Memory) StartNewWindow() {
	for _, b := range m.banks {
		b.StartNewWindow()
	}
}

// MaxWindowACT returns the system-wide hottest slot count in the current
// window, with its bank index and slot.
func (m *Memory) MaxWindowACT() (count uint32, bankIdx int, slot RowID) {
	for i, b := range m.banks {
		if c, s := b.MaxWindowACT(); c > count {
			count, bankIdx, slot = c, i, s
		}
	}
	return count, bankIdx, slot
}

// VerifyPermutations checks data-integrity invariants on every bank.
func (m *Memory) VerifyPermutations() error {
	for i, b := range m.banks {
		if err := b.VerifyPermutation(); err != nil {
			return fmt.Errorf("bank %d: %w", i, err)
		}
	}
	return nil
}

// Recycle returns the rank-level SoA backing stores to the package pool
// so the next Memory pays no allocation or zeroing cost for them: each
// bank records its high-water epoch on detach, and the epoch-stamped
// counters make every count a previous owner left behind read as zero.
// The Memory and its banks must not be used afterwards; sim.Run calls
// this once a run's statistics have been extracted.
func (m *Memory) Recycle() {
	for _, b := range m.banks {
		b.recycle()
	}
	for i, st := range m.ranks {
		rankStatePool.Put(st)
		m.ranks[i] = nil
	}
}

// BankState is one bank's timing state and activation totals: all of
// the bank but its Row Hammer counters and its row permutation.
type BankState struct {
	openRow                                  RowID
	nextACT, busyUntil                       Cycles
	totalACTs, totalRefresh, windowStartACTs uint64
}

// AppendState appends every bank's BankState to dst, in bank order.
func (m *Memory) AppendState(dst []BankState) []BankState {
	for _, b := range m.banks {
		dst = append(dst, BankState{b.openRow, b.nextACT, b.busyUntil, b.TotalACTs, b.TotalRefresh, b.windowStartACTs})
	}
	return dst
}

// Restore sets every bank's timing state and activation totals from the
// AppendState of a memory of the same geometry. Row Hammer counters are
// rebuilt separately, by Bank.ChargeWindowACT.
func (m *Memory) Restore(s []BankState) {
	for i, b := range m.banks {
		st := s[i]
		b.openRow, b.nextACT, b.busyUntil = st.openRow, st.nextACT, st.busyUntil
		b.TotalACTs, b.TotalRefresh, b.windowStartACTs = st.totalACTs, st.totalRefresh, st.windowStartACTs
	}
}

// TotalACTs returns the cumulative number of activate commands issued.
func (m *Memory) TotalACTs() uint64 {
	var n uint64
	for _, b := range m.banks {
		n += b.TotalACTs
	}
	return n
}
