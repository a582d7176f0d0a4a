package simcache

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

func errZeroBaseline(name string) error {
	return fmt.Errorf("simcache: baseline IPC is zero for %s", name)
}

// RunKey returns the cache key identifying one simulation: the full
// workload description (not just its name, so a retuned profile can
// never alias an old result), the complete system configuration, and
// the normalized options.
func RunKey(w trace.Workload, sys config.System, opt sim.Options) string {
	return Key("sim.Run", w, sys, opt.Normalized(sys))
}

// RunCached is sim.Run behind the cache: a hit returns the stored
// result (hit == true) without simulating; a miss simulates and stores.
// Results are deterministic functions of (workload, system, options), so
// a hit is bit-identical to a cold run except for the host-performance
// instrumentation fields (WallSeconds, SimIPS), which describe the
// original run. A nil cache degenerates to plain sim.Run.
func RunCached(c *Cache, w trace.Workload, sys config.System, opt sim.Options) (*sim.Result, bool, error) {
	if c == nil {
		res, err := sim.Run(w, sys, opt)
		return res, false, err
	}
	key := RunKey(w, sys, opt)
	var cached sim.Result
	if hit, err := c.Get(key, &cached); err == nil && hit {
		return &cached, true, nil
	}
	res, err := sim.Run(w, sys, opt)
	if err != nil {
		return nil, false, err
	}
	// Storing is best-effort: a full disk or read-only cache directory
	// must not fail a successful simulation.
	_ = c.Put(key, res)
	return res, false, nil
}

// NormalizedPerf mirrors sim.NormalizedPerf with both the unprotected
// baseline and the mitigated run served through the cache. When the
// baseline is cached or parallel is false, the two are resolved in turn
// by one Resolver, so the mitigated run is derived from the baseline,
// or resumed from one of its checkpoints, when sim.Resume can. A cached
// baseline carries no tape, so only Derive's bound or a stored
// mitigated result can spare the simulation then. Otherwise, when
// parallel is true, the two simulate concurrently: they share no state
// (each builds its own memory system and RNG from the options), so the
// values are identical either way.
func NormalizedPerf(c *Cache, w trace.Workload, sys config.System, opt sim.Options, parallel bool) (float64, *sim.Result, *sim.Result, error) {
	base := baselineOf(sys)
	var rb, rm *sim.Result
	var errB, errM error
	if !parallel || c.Has(RunKey(w, base, opt)) {
		var r Resolver
		s := BestEffort(c)
		if rb, _, errB = r.Resolve(s, w, base, opt); errB == nil {
			rm, _, errM = r.Resolve(s, w, sys, opt)
		}
	} else {
		done := make(chan struct{})
		go func() {
			defer close(done)
			rb, _, errB = RunCached(c, w, base, opt)
		}()
		rm, _, errM = RunCached(c, w, sys, opt)
		<-done
	}
	if errB != nil {
		return 0, nil, nil, errB
	}
	if errM != nil {
		return 0, nil, nil, errM
	}
	if rb.MeanIPC == 0 {
		return 0, rb, rm, errZeroBaseline(w.Name)
	}
	return rm.MeanIPC / rb.MeanIPC, rb, rm, nil
}
