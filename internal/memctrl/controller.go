// Package memctrl implements the memory controller: closed-page access
// scheduling over the DRAM model, per-channel data-bus serialization,
// rank refresh every tREFI, and the Row Hammer mitigation hook points —
// the tracker observes every activation, and threshold crossings invoke
// the configured mitigation (which may swap rows, block banks, or
// request LLC pinning).
package memctrl

import (
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/tracker"
)

// Cycles mirrors dram.Cycles.
type Cycles = dram.Cycles

// PinFunc is the callback invoked when the mitigation classifies a row
// as an outlier to pin in the LLC.
type PinFunc func(bankIdx int, row dram.RowID)

// Stats aggregates controller activity.
type Stats struct {
	Reads         uint64
	Writes        uint64
	Refreshes     uint64
	TrackerMemOps uint64 // DRAM accesses generated by the tracker (Hydra)
	Mitigations   uint64 // T_S crossings handed to the mitigation
}

// Controller schedules DRAM accesses and drives the mitigation.
type Controller struct {
	mem *dram.Memory
	trk tracker.Tracker
	mit core.Mitigation
	ts  int // swap threshold T_S; 0 disables mitigation

	// skipTrack is set for a Misra-Gries baseline (T_S = 0): its counts
	// are never compared and it never adds DRAM traffic, so recording
	// ACTs in it could not change the run.
	skipTrack bool

	busFree     []Cycles // per-channel data bus availability
	nextRefresh []Cycles // per-(channel,rank) refresh deadline

	pin PinFunc

	// trackerSlotBase is the first reserved row used for tracker
	// metadata (Hydra's memory-resident counters).
	trackerSlotBase int

	// openPage selects an open-page row-buffer policy for demand
	// accesses (§VIII-3 discusses its interaction with Juggernaut); the
	// default is the closed-page policy of the paper's evaluation.
	openPage bool

	stats Stats

	// firstAct is the cycle of the first access at which the tracker
	// reached DRAM or handed a row to the mitigation, -1 before it.
	firstAct Cycles
}

// Snapshot is a controller's scheduling state and counters: the
// per-channel bus and per-rank refresh deadlines, and Stats.
type Snapshot struct {
	busFree, nextRefresh []Cycles
	stats                Stats
}

// Save captures the controller's scheduling state and counters in s,
// reusing s's buffers.
func (c *Controller) Save(s *Snapshot) {
	s.busFree = append(s.busFree[:0], c.busFree...)
	s.nextRefresh = append(s.nextRefresh[:0], c.nextRefresh...)
	s.stats = c.stats
}

// Restore sets the scheduling state and counters from the Save of a
// controller over the same geometry whose tracker had not acted yet.
func (c *Controller) Restore(s Snapshot) {
	copy(c.busFree, s.busFree)
	copy(c.nextRefresh, s.nextRefresh)
	c.stats = s.stats
}

// FirstAction returns the cycle of the first access at which the
// tracker reached DRAM or crossed T_S, or -1 if it never has: up to
// that access the run is its unprotected baseline (see
// core.Mitigation).
func (c *Controller) FirstAction() Cycles { return c.firstAct }

// SetOpenPage switches demand accesses to an open-page policy: row
// buffer hits skip the activation entirely (and are invisible to the
// tracker, since they are not ACT commands).
func (c *Controller) SetOpenPage(open bool) { c.openPage = open }

// New returns a controller over mem using the given tracker and
// mitigation. ts is the swap threshold (T_RH / swap rate); pass 0 for an
// unprotected baseline.
//
// pin must be non-nil when the mitigation is Scale-SRS and must divert
// the row's subsequent accesses to the LLC: once a row is classified an
// outlier the mitigation stops swapping it, so dropping the pin leaves
// the row unprotected (see TestScaleSRSPinContract).
func New(mem *dram.Memory, trk tracker.Tracker, mit core.Mitigation, ts int, pin PinFunc) *Controller {
	g := mem.Geometry()
	nRanks := g.Channels * g.RanksPerCh
	_, mg := trk.(*tracker.MisraGries)
	c := &Controller{
		mem:             mem,
		trk:             trk,
		mit:             mit,
		ts:              ts,
		skipTrack:       ts == 0 && mg,
		busFree:         make([]Cycles, g.Channels),
		nextRefresh:     make([]Cycles, nRanks),
		pin:             pin,
		trackerSlotBase: g.RowsPerBank - core.ReservedRows,
		firstAct:        -1,
	}
	// Stagger refresh deadlines across ranks to avoid lockstep.
	t := mem.Timing()
	for i := range c.nextRefresh {
		c.nextRefresh[i] = t.TREFI * Cycles(i+1) / Cycles(nRanks)
	}
	return c
}

// Stats returns a copy of the activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// Memory returns the underlying DRAM model.
func (c *Controller) Memory() *dram.Memory { return c.mem }

// Access performs one demand access to the given location, returning the
// cycle at which read data is available (or the write is accepted). The
// logical row is resolved through the mitigation's indirection, the
// activation is reported to the tracker, and a T_S crossing triggers the
// mitigation synchronously.
func (c *Controller) Access(loc dram.Location, write bool, now Cycles) Cycles {
	slot := c.mit.Resolve(loc.BankIdx, loc.Row)
	bank := c.mem.Bank(loc.BankIdx)
	t := c.mem.Timing()
	var done Cycles
	rowHit := false
	if c.openPage {
		rowHit = bank.OpenRow() == slot
		done = bank.AccessOpen(slot, write, now, t)
	} else {
		done = bank.Access(slot, write, now, t)
	}

	// Serialize the channel data bus.
	if start := done - t.TBURST; start < c.busFree[loc.Channel] {
		done = c.busFree[loc.Channel] + t.TBURST
	}
	c.busFree[loc.Channel] = done

	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	// Tracker observes the logical row's activation (row-buffer hits
	// issue no ACT command and are therefore not tracked).
	if rowHit || c.skipTrack {
		return done
	}
	count, extra := c.trk.RecordACT(loc.BankIdx, loc.Row)
	if c.firstAct < 0 && (extra > 0 || c.ts > 0 && count >= c.ts) {
		c.firstAct = now
	}
	for i := 0; i < extra; i++ {
		// Tracker metadata accesses hit the reserved counter region.
		cslot := dram.RowID(c.trackerSlotBase + (int(loc.Row)+i)%core.ReservedRows)
		bank.Access(cslot, i%2 == 1, done, t)
		c.stats.TrackerMemOps++
	}

	if c.ts > 0 && count >= c.ts {
		c.stats.Mitigations++
		pinIt := c.mit.OnAggressor(loc.BankIdx, loc.Row, done)
		c.trk.ResetRow(loc.BankIdx, loc.Row)
		if pinIt && c.pin != nil {
			c.pin(loc.BankIdx, loc.Row)
		}
	}
	return done
}

// Tick performs per-cycle background work: refresh scheduling and the
// mitigation's lazily paced operations.
func (c *Controller) Tick(now Cycles) {
	t := c.mem.Timing()
	g := c.mem.Geometry()
	for r := range c.nextRefresh {
		if now >= c.nextRefresh[r] {
			ch, rank := r/g.RanksPerCh, r%g.RanksPerCh
			c.mem.RefreshRank(ch, rank, now)
			c.nextRefresh[r] += t.TREFI
			c.stats.Refreshes++
		}
	}
	c.mit.Tick(now)
}

// NextWork returns the earliest future cycle at which Tick has work to
// do: the soonest per-rank refresh deadline or the mitigation's next
// scheduled operation. Tick is a no-op at every cycle before the
// returned deadline, so the event-driven kernel may jump straight to it.
func (c *Controller) NextWork(now Cycles) Cycles {
	next := c.mit.NextWork(now)
	for _, r := range c.nextRefresh {
		if r < next {
			next = r
		}
	}
	if next <= now {
		return now + 1
	}
	return next
}

// OnWindowEnd resets Row Hammer accounting at the refresh-window
// boundary: DRAM counters, the tracker, and the mitigation's epoch state.
func (c *Controller) OnWindowEnd(now Cycles) {
	c.mem.StartNewWindow()
	c.trk.Reset()
	c.mit.OnWindowEnd(now)
}

// TSThreshold returns the configured swap threshold.
func (c *Controller) TSThreshold() int { return c.ts }

// NewTracker constructs the tracker selected by the configuration, sized
// per the paper: Misra-Gries capacity ceil(ACT_max/T_S) entries per bank;
// Hydra with HydraGroupRows-row groups, a group threshold of
// HydraGroupThreshold, and a per-bank row-counter cache.
func NewTracker(sys config.System, geo config.Geometry) tracker.Tracker {
	numBanks := geo.TotalBanks()
	switch sys.Mitigation.Tracker {
	case config.TrackerHydra:
		return tracker.NewHydra(numBanks, geo.RowsPerBank, HydraGroupRows, HydraGroupThreshold(sys), 2048)
	default:
		return tracker.NewMisraGries(numBanks, MisraGriesCapacity(sys))
	}
}

// HydraGroupRows is the number of consecutive rows one Hydra group
// counter covers (128 in the Hydra paper).
const HydraGroupRows = 128

// HydraGroupThreshold returns the group count at which NewTracker's
// Hydra switches a group to per-row counters in DRAM: T_S/2, at least 1.
// Below it Hydra touches no DRAM and reports counts under T_S.
func HydraGroupThreshold(sys config.System) int {
	return max(trackerTS(sys)/2, 1)
}

// MisraGriesCapacity returns the per-bank entry capacity NewTracker
// gives a Misra-Gries tracker: ACT_max / T_S + 16 entries, with ACT_max
// taken over sys's refresh window (the compressed one inside sim.Run).
func MisraGriesCapacity(sys config.System) int {
	return sys.Timing.MaxActivations()/trackerTS(sys) + 16
}

// trackerTS is the threshold a tracker is sized for: T_S, or a huge
// value for the unprotected baseline (tracker present, never crossed).
func trackerTS(sys config.System) int {
	if ts := sys.Mitigation.TS(); ts > 0 {
		return ts
	}
	return 1 << 20
}
