package simcache

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// TestRunCachedStoreDerivesFromStoredBaseline checks how the resolver
// a sweep job runs through uses sim.Derive: a quiet mitigated cell
// whose baseline is absent from the store resolves and stores the
// baseline first, and is derived from it. The baseline's entry equals
// the one its own job stores, and the derived entry equals the
// simulation, host fields aside.
func TestRunCachedStoreDerivesFromStoredBaseline(t *testing.T) {
	w, sys, opt := testWorkload(t), testSys(), testOpts()
	base := baselineOf(sys)
	simulated, err := sim.Run(w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}

	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var r Resolver
	derived, how, err := r.Resolve(c, w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if how != Derived || !derived.Derived() {
		t.Fatalf("resolved %v (kernel %q), want derived from the baseline", how, derived.Kernel)
	}
	var storedBase sim.Result
	if hit, err := c.Get(RunKey(w, base, opt), &storedBase); err != nil || !hit {
		t.Fatalf("the baseline resolved for the cell was not stored: (%v, %v)", hit, err)
	}
	own, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var fresh Resolver
	if _, how, err := fresh.Resolve(own, w, base, opt); err != nil || how != Simulated {
		t.Fatalf("the baseline's own job resolved (%v, %v), want simulated", how, err)
	}
	var ownBase sim.Result
	if hit, err := own.Get(RunKey(w, base, opt), &ownBase); err != nil || !hit {
		t.Fatalf("the baseline's own job stored nothing: (%v, %v)", hit, err)
	}
	if !reflect.DeepEqual(stripHost(&storedBase), stripHost(&ownBase)) {
		t.Errorf("the baseline stored for a sibling differs from its own job's entry:\nsibling's: %+v\nown:       %+v", storedBase, ownBase)
	}

	var stored sim.Result
	if hit, err := c.Get(RunKey(w, sys, opt), &stored); err != nil || !hit {
		t.Fatalf("derived result not stored: (%v, %v)", hit, err)
	}
	strip := func(r *sim.Result) *sim.Result {
		r = stripHost(r)
		r.Kernel, r.Regimes = "", cpu.RegimeStats{}
		return r
	}
	if !reflect.DeepEqual(strip(&stored), strip(simulated)) {
		t.Errorf("derived entry differs from the simulation:\nderived:   %+v\nsimulated: %+v", stored, *simulated)
	}
}

// TestNormalizedPerfDerives checks that a serial NormalizedPerf, and a
// parallel one whose baseline is cached, derive a quiet mitigated run,
// under either tracker, and that a Hydra cell whose hottest group
// reaches the group threshold is simulated instead.
func TestNormalizedPerfDerives(t *testing.T) {
	w, sys, opt := testWorkload(t), testSys(), testOpts()
	if _, _, rm, err := NormalizedPerf(nil, w, sys, opt, false); err != nil || !rm.Derived() {
		t.Fatalf("serial uncached: err %v, derived %v", err, err == nil && rm.Derived())
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunCached(c, w, baselineOf(sys), opt); err != nil {
		t.Fatal(err)
	}
	if _, _, rm, err := NormalizedPerf(c, w, sys, opt, true); err != nil || !rm.Derived() {
		t.Fatalf("parallel with a cached baseline: err %v, derived %v", err, err == nil && rm.Derived())
	}
	hydra := sys
	hydra.Mitigation.Tracker = config.TrackerHydra
	if _, _, rm, err := NormalizedPerf(c, w, hydra, opt, true); err != nil || !rm.Derived() {
		t.Fatalf("quiet hydra: err %v, derived %v", err, err == nil && rm.Derived())
	}
	hot := hydra
	hot.Mitigation = config.DefaultRRS(512)
	hot.Mitigation.Tracker = config.TrackerHydra
	_, _, rm, err := NormalizedPerf(c, w, hot, opt, true)
	if err != nil || rm.Derived() {
		t.Fatalf("hot hydra: err %v, derived %v", err, err == nil && rm.Derived())
	}
	if rm.Ctrl.TrackerMemOps == 0 {
		t.Errorf("hot hydra: the simulated run made no tracker DRAM access; pick a hotter case")
	}
}

// TestNormalizedPerfStoresResumed checks that a serial NormalizedPerf
// stores a mitigated run it resumed from its baseline's tape, and that
// a later call, whose baseline comes from the cache without a tape, is
// served that entry instead of simulating.
func TestNormalizedPerfStoresResumed(t *testing.T) {
	w, sys, opt := testWorkload(t), testSys(), testOpts()
	sys.Mitigation = config.DefaultRRS(512)
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, rm, err := NormalizedPerf(c, w, sys, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Resume == nil || rm.Resume.How != sim.ResumeRestart {
		t.Fatalf("the cell was not resumed (%+v); pick a hotter case", rm.Resume)
	}
	if !c.Has(RunKey(w, sys, opt)) {
		t.Fatal("the resumed run was not stored")
	}
	_, _, again, err := NormalizedPerf(c, w, sys, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resume != nil {
		t.Errorf("the second call resumed again (%+v) instead of reading the stored run", again.Resume)
	}
	want := *stripHost(rm)
	want.Resume = nil
	if got := stripHost(again); !reflect.DeepEqual(got, &want) {
		t.Errorf("the stored run differs from the resumed one:\n%+v\nvs\n%+v", got, &want)
	}
}
