// Package core implements the paper's primary contribution: swap-based
// Row Hammer mitigations for the memory controller.
//
// Three mechanisms are provided behind a common Mitigation interface:
//
//   - RRS: Randomized Row-Swap (Saileshwar et al., ASPLOS'22), the prior
//     state of the art. RRS stores swaps as tuple pairs in a Row
//     Indirection Table and immediately unswaps a row before re-swapping
//     it. The unswap-swap sequence causes up to two "latent" activations
//     on the aggressor row's original physical location — the channel the
//     Juggernaut attack exploits (§II-F, §III).
//   - SRS: Secure Row-Swap (§IV). Swap-only indirection (split real +
//     mirrored RIT halves) eliminates unswap-swap latent activations;
//     displaced rows are lazily placed back across the next epoch through
//     a per-bank place-back buffer.
//   - Scale-SRS: SRS plus per-row swap-tracking counters for attack
//     detection and LLC pinning of outlier rows, which makes a swap rate
//     of 3 safe and cheap (§V).
//
// Every data movement is performed as an explicit DRAM activate sequence
// on the dram.Bank model, so latent activations — the security-critical
// side effect — are accounted exactly where the paper says they occur.
package core

import (
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/stats"
)

// Cycles mirrors dram.Cycles.
type Cycles = dram.Cycles

// NoWork is the NextWork sentinel meaning "no lazily scheduled work
// pending": effectively an infinite deadline, so the event kernel never
// wakes up for this component.
const NoWork = Cycles(1<<63 - 1)

// Stats aggregates mitigation activity.
type Stats struct {
	Swaps           uint64 // swap operations performed
	Unswaps         uint64 // immediate unswap operations (RRS)
	PlaceBacks      uint64 // lazy place-back operations (SRS)
	ForcedRestores  uint64 // RIT-eviction-driven restores (should be ~0)
	LatentACTs      uint64 // activations caused by mitigation itself
	Pins            uint64 // rows pinned in the LLC (Scale-SRS)
	CounterAccesses uint64 // DRAM swap-counter reads/writes (Scale-SRS)
	EpochSpikeOps   uint64 // window-end bulk restores (RRS without unswap)
}

// Mitigation is the memory-controller hook implemented by every defense.
//
// Every implementation is inert until its first OnAggressor call:
// Resolve is the identity, Tick and OnWindowEnd issue no bank operation
// (no activation, no blocking), NextWork reports NoWork, and Stats is
// zero. A mitigated run whose tracker never crosses T_S (nor, for
// Hydra, reaches DRAM) is therefore cycle-for-cycle its unprotected
// baseline, which is what lets
// sim.Derive build such a run's Result from the baseline's instead of
// simulating it (TestMitigationsInertBeforeFirstAggressor pins this).
type Mitigation interface {
	// Name identifies the mechanism.
	Name() string

	// Resolve maps a logical row to the physical slot currently holding
	// its data. The controller activates the returned slot.
	Resolve(bankIdx int, row dram.RowID) dram.RowID

	// OnAggressor is invoked when the tracker observes that row crossed
	// the swap threshold T_S. The mitigation performs its swap machinery
	// synchronously (issuing activates and blocking the bank) and
	// returns true if the row should instead be pinned in the LLC
	// (Scale-SRS outlier detection).
	OnAggressor(bankIdx int, row dram.RowID, now Cycles) (pin bool)

	// Tick performs lazily scheduled work (place-backs, epoch eviction).
	// The controller calls it at every active cycle; implementations
	// return fast when nothing is due.
	Tick(now Cycles)

	// NextWork returns the earliest future cycle at which Tick has
	// scheduled work, or NoWork when the mitigation is idle. The
	// event-driven kernel uses it to skip the idle cycles, so Tick must
	// be a no-op at every cycle before the returned deadline, and new
	// deadlines may be created only inside Tick or OnWindowEnd (the two
	// points where the kernel re-reads NextWork) — never in OnAggressor.
	NextWork(now Cycles) Cycles

	// OnWindowEnd is called at each refresh-window boundary.
	OnWindowEnd(now Cycles)

	// Stats returns a snapshot of activity counters.
	Stats() Stats
}

// Baseline is the unprotected system: identity mapping, no action.
type Baseline struct{}

// Name implements Mitigation.
func (Baseline) Name() string { return "baseline" }

// Resolve implements Mitigation (identity).
func (Baseline) Resolve(_ int, row dram.RowID) dram.RowID { return row }

// OnAggressor implements Mitigation (no action).
func (Baseline) OnAggressor(int, dram.RowID, Cycles) bool { return false }

// Tick implements Mitigation.
func (Baseline) Tick(Cycles) {}

// NextWork implements Mitigation (never any scheduled work).
func (Baseline) NextWork(Cycles) Cycles { return NoWork }

// OnWindowEnd implements Mitigation.
func (Baseline) OnWindowEnd(Cycles) {}

// Stats implements Mitigation.
func (Baseline) Stats() Stats { return Stats{} }

// engine holds the machinery shared by RRS and SRS variants.
type engine struct {
	mem   *dram.Memory
	rng   *stats.RNG
	stats Stats

	swapCycles   Cycles // t_swap
	reswapCycles Cycles // t_reswap (unswap + swap)

	// usableRows excludes the reserved counter rows at the top of each
	// bank so swap partners never land on metadata.
	usableRows int
}

func newEngine(mem *dram.Memory, sys config.System, rng *stats.RNG, reserveRows int) *engine {
	clk := sys.Core.ClockGHz
	return &engine{
		mem:          mem,
		rng:          rng,
		swapCycles:   Cycles(sys.SwapLatency() * clk),
		reswapCycles: Cycles(sys.ReswapLatency() * clk),
		usableRows:   mem.Geometry().RowsPerBank - reserveRows,
	}
}

// migrate exchanges the contents of two physical slots, modelling the
// paper's swap micro-operation: the destination row is activated to read
// it out and write the incoming data, then the source slot is activated
// again to receive the displaced data — the second activation is the
// "latent activation" of §II-F (Fig. 2, step 5).
func (e *engine) migrate(bankIdx int, slotA, slotB dram.RowID, now Cycles, block Cycles) {
	b := e.mem.Bank(bankIdx)
	t := e.mem.Timing()
	// Migrations queue behind whatever already occupies the bank —
	// back-to-back swaps (and especially bulk window-end unravels)
	// serialize rather than overlap.
	start := now
	if bu := b.BusyUntil(); bu > start {
		start = bu
	}
	b.Activate(slotB, start, t)
	b.Activate(slotA, start, t) // latent activation on slotA
	b.SwapContents(slotA, slotB)
	b.Block(start + block)
	e.stats.LatentACTs++
}

// randomFreeRow picks a uniformly random row in the bank that is not
// currently involved in any indirection (per the given predicate), not
// one of the excluded rows, and within the usable (non-reserved) range.
func (e *engine) randomFreeRow(busy func(dram.RowID) bool, exclude ...dram.RowID) dram.RowID {
	for {
		cand := dram.RowID(e.rng.Intn(e.usableRows))
		if busy != nil && busy(cand) {
			continue
		}
		ok := true
		for _, x := range exclude {
			if cand == x {
				ok = false
				break
			}
		}
		if ok {
			return cand
		}
	}
}
