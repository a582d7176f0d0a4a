package sim

import (
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/memctrl"
)

// DerivedKernel is the Kernel of a Result built by Derive instead of a
// simulation.
const DerivedKernel = "derived"

// Derived reports whether Derive built r from a baseline run.
func (r *Result) Derived() bool { return r.Kernel == DerivedKernel }

// Derivable reports whether Derive may accept a cell under mitigation
// m, given a quiet enough baseline: m is a valid mitigation tracked by
// Misra-Gries or Hydra. Callers use it to skip fetching a baseline for
// cells Derive would refuse anyway.
func Derivable(m config.Mitigation) bool {
	return m.Kind != config.MitigationNone &&
		(m.Tracker == config.TrackerMisraGries || m.Tracker == config.TrackerHydra) &&
		m.Validate() == nil
}

// Derive builds the Result that Run(w, sys, opt) returns, from base, the
// Result of Run(w, sys with the zero Mitigation, opt), when base proves
// the mitigated run's tracker stays inert. It reports false, and
// simulating is the only way, when it cannot prove that: the mitigation
// is not Derivable, base is not a baseline run with a window profile, or
// some window's bank activity admits the tracker acting.
//
// Why the result is exact: every Mitigation is inert until its first
// OnAggressor (see core.Mitigation), and in a baseline the slots are the
// identity and every demand activation, writebacks included, reaches the
// tracker. So as long as the tracker touches no DRAM and reports counts
// below T_S, the mitigated run is the baseline cycle for cycle, by
// induction over activations. Per tracker:
//
//   - Misra-Gries lives in SRAM. Space-Saving's counters sum to the
//     bank's activations N in the window, so a row's estimate is at most
//     its true count plus ⌊N/m⌋ for a capacity of m entries. Derive
//     accepts when every window and bank of base has max slot count +
//     ⌊N/m⌋ < T_S.
//   - Hydra counts groups of memctrl.HydraGroupRows rows in SRAM and
//     reaches DRAM only when a group reaches memctrl.HydraGroupThreshold
//     (T_S/2); below it every count it reports is under T_S. Derive
//     accepts when every window and bank of base has its hottest group
//     below that threshold, and refuses a profile whose group maximum is
//     below its slot maximum (one written before groups were profiled).
//
// Only the labels, the (zero) mitigation counters and the host
// instrumentation differ: Kernel is DerivedKernel, WallSeconds the time
// the derivation took, SimIPS and Regimes zero.
func Derive(base *Result, sys config.System, opt Options) (*Result, bool) {
	start := time.Now()
	m := sys.Mitigation
	if !Derivable(m) {
		return nil, false
	}
	if base == nil || base.Mitigation != core.NameOf(config.Mitigation{}) ||
		base.Tracker != config.TrackerMisraGries.String() || len(base.Windows) == 0 {
		return nil, false
	}
	opt = opt.withDefaults(sys)
	if base.Instructions != opt.Instructions*int64(len(base.PerCoreIPC)) {
		return nil, false
	}
	if m.Tracker == config.TrackerHydra {
		gt := memctrl.HydraGroupThreshold(sys)
		for _, bw := range base.Windows {
			if bw.MaxGroupACT < bw.MaxACT || int(bw.MaxGroupACT) >= gt {
				return nil, false
			}
		}
	} else {
		// Size the tracker exactly as Run does: over the compressed window.
		sys.Timing.RefreshWindow = opt.WindowNS
		capacity := memctrl.MisraGriesCapacity(sys)
		ts := m.TS()
		for _, bw := range base.Windows {
			if int(bw.MaxACT)+int(bw.ACTs)/capacity >= ts {
				return nil, false
			}
		}
	}

	return relabel(base, m, start), true
}
