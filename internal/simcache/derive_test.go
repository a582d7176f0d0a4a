package simcache

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// TestRunCachedStoreDerivesFromStoredBaseline checks the sweep job
// runner's use of sim.Derive: a quiet mitigated cell is simulated while
// its baseline is absent from the store (which never gains a
// speculative baseline entry), and derived once the baseline entry is
// there. The derived entry equals the simulation, host fields aside.
func TestRunCachedStoreDerivesFromStoredBaseline(t *testing.T) {
	w, sys, opt := testWorkload(t), testSys(), testOpts()
	base := baselineOf(sys)

	cold, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	simulated, _, err := RunCachedStore(cold, w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if simulated.Derived() {
		t.Fatal("derived with no baseline in the store")
	}
	if hit, _ := cold.Get(RunKey(w, base, opt), &sim.Result{}); hit {
		t.Error("the store gained a baseline entry nobody asked for")
	}

	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunCachedStore(c, w, base, opt); err != nil {
		t.Fatal(err)
	}
	derived, hit, err := RunCachedStore(c, w, sys, opt)
	if err != nil || hit {
		t.Fatalf("RunCachedStore = (hit %v, err %v), want a derived miss", hit, err)
	}
	if !derived.Derived() {
		t.Fatalf("not derived from the stored baseline (kernel %q)", derived.Kernel)
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
