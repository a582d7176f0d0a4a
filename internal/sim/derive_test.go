package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/memctrl"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stripHost zeroes the host-instrumentation fields, the only ones in
// which a derived Result may differ from a simulated one.
func stripHost(r *sim.Result) *sim.Result {
	c := *r
	c.WallSeconds = 0
	c.SimIPS = 0
	c.Kernel = ""
	c.Regimes = cpu.RegimeStats{}
	return &c
}

// quickPlan is the deduplicated cell set of every performance figure
// over the given workloads on 8 cores.
func quickPlan(workloads []string, opt sim.Options) report.EvaluationPlan {
	popt := report.PerfOptions{Workloads: workloads, Cores: 8, Sim: opt}
	var figs []report.PerfFigure
	for _, id := range report.PerfFigureIDs() {
		f, _ := report.PerfFigureByID(id)
		figs = append(figs, f)
	}
	return popt.PlanEvaluation(figs)
}

// TestDeriveMatchesRun is the differential oracle for Derive: every
// mitigated cell of the quick evaluation that Derive accepts must equal
// a real simulation of the cell, host instrumentation aside. Hydra's
// bound is also tight, so every Hydra cell Derive refuses must, when
// simulated, reach DRAM through its tracker. At 20k instructions the
// runs end inside their first refresh window, so a second pass over a
// few workloads runs longer against a 40 µs window: the slower runs then
// cross window boundaries, and a crossing in an earlier window must be
// caught by the per-window profile.
func TestDeriveMatchesRun(t *testing.T) {
	t.Run("quick", func(t *testing.T) {
		checkDeriveMatchesRun(t, quickPlan(report.QuickWorkloads, sim.Options{Instructions: 20_000}))
	})
	t.Run("multi-window", func(t *testing.T) {
		checkDeriveMatchesRun(t, quickPlan([]string{"gups", "gcc", "mcf", "povray"},
			sim.Options{Instructions: 40_000, WindowNS: 40_000}))
	})
}

func checkDeriveMatchesRun(t *testing.T, plan report.EvaluationPlan) {
	bases := map[string]*sim.Result{}
	for _, c := range plan.Cells {
		if c.Label != "" {
			continue
		}
		rb, err := sim.Run(c.Workload, c.System, plan.Sim)
		if err != nil {
			t.Fatal(err)
		}
		bases[c.Workload.Name] = rb
	}
	var accepted, refused [2]int // by tracker: Misra-Gries, Hydra
	for _, c := range plan.Cells {
		if c.Label == "" || !sim.Derivable(c.System.Mitigation) {
			continue
		}
		tk := c.System.Mitigation.Tracker
		d, ok := sim.Derive(bases[c.Workload.Name], c.System, plan.Sim)
		if !ok {
			refused[tk]++
			if tk != config.TrackerHydra {
				continue
			}
		} else {
			accepted[tk]++
			if !d.Derived() || d.WallSeconds <= 0 {
				t.Errorf("%s %s: derived result not marked (kernel %q, wall %g)", c.Label, c.Workload.Name, d.Kernel, d.WallSeconds)
			}
		}
		r, err := sim.Run(c.Workload, c.System, plan.Sim)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !ok && r.Ctrl.TrackerMemOps == 0:
			t.Errorf("%s %s: Derive refused a Hydra cell whose tracker never reached DRAM", c.Label, c.Workload.Name)
		case ok && !reflect.DeepEqual(stripHost(d), stripHost(r)):
			t.Errorf("%s %s: derived result differs from the simulation:\nderived: %+v\nrun:     %+v",
				c.Label, c.Workload.Name, d, r)
		}
	}
	mg, hy := config.TrackerMisraGries, config.TrackerHydra
	t.Logf("Derive accepted %d of %d Misra-Gries-tracked and %d of %d Hydra-tracked mitigated cells",
		accepted[mg], accepted[mg]+refused[mg], accepted[hy], accepted[hy]+refused[hy])
	if accepted[mg] == 0 || accepted[hy] == 0 || refused[hy] == 0 {
		t.Fatal("the oracle needs a derived cell of each tracker and a refused Hydra cell to compare")
	}
}

// TestDeriveRefuses covers inputs Derive must turn down without
// panicking, leaving the cell to a real simulation.
func TestDeriveRefuses(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 2
	opt := sim.Options{Instructions: 20_000}
	wl := func(name string) trace.Workload {
		w, ok := trace.WorkloadByName(name, sys.Core.Cores)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		return w
	}
	calm, err := sim.Run(wl("povray"), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	hydra := config.DefaultScaleSRS(1200)
	hydra.Tracker = config.TrackerHydra
	for _, m := range []config.Mitigation{config.DefaultScaleSRS(1200), hydra} {
		if _, ok := sim.Derive(calm, withMitigation(sys, m), opt); !ok {
			t.Fatalf("povray's baseline does not derive %s; the refusals below prove nothing", m.Tracker)
		}
	}
	// A profile written before groups were profiled: MaxGroupACT reads
	// zero under a live MaxACT, and proves nothing about Hydra.
	ungrouped := *calm
	ungrouped.Windows = append([]sim.BankWindow(nil), calm.Windows...)
	for i := range ungrouped.Windows {
		ungrouped.Windows[i].MaxGroupACT = 0
	}
	mitigated, err := sim.Run(wl("povray"), withMitigation(sys, config.DefaultSRS(1200)), opt)
	if err != nil {
		t.Fatal(err)
	}
	zeroTS := config.DefaultRRS(1200)
	zeroTS.SwapRate = 2400 // T_S = 1200/2400 = 0
	for _, tc := range []struct {
		name string
		base *sim.Result
		mit  config.Mitigation
		opt  sim.Options
	}{
		{"hydra, profile without groups", &ungrouped, hydra, opt},
		{"zero T_S", calm, zeroTS, opt},
		{"missing T_RH", calm, config.Mitigation{Kind: config.MitigationRRS}, opt},
		{"baseline target", calm, config.Mitigation{}, opt},
		{"nil base", nil, config.DefaultRRS(1200), opt},
		{"mitigated base", mitigated, config.DefaultRRS(1200), opt},
		{"other budget", calm, config.DefaultRRS(1200), sim.Options{Instructions: 30_000}},
		{"no window profile", func() *sim.Result { c := *calm; c.Windows = nil; return &c }(), config.DefaultRRS(1200), opt},
	} {
		if d, ok := sim.Derive(tc.base, withMitigation(sys, tc.mit), tc.opt); ok || d != nil {
			t.Errorf("%s: Derive accepted (%v, %v)", tc.name, d, ok)
		}
	}

	// A baseline hot enough to admit a crossing: the bound must reject
	// it, and the simulation confirms the tracker really crosses T_S.
	sys.Core.Cores = 8
	w := wl("gcc")
	hot, err := sim.Run(w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	rrs := withMitigation(sys, config.DefaultRRS(512))
	if d, ok := sim.Derive(hot, rrs, opt); ok {
		t.Fatalf("gcc: Derive accepted a baseline that admits a crossing (%+v)", d)
	}
	r, err := sim.Run(w, rrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ctrl.Mitigations == 0 {
		t.Errorf("gcc under RRS at T_RH 512 crossed T_S 0 times; pick a hotter refusal case")
	}

	// The same baseline admits a Hydra group reaching T_S/2: the bound
	// must reject it, and the simulation confirms the tracker really
	// leaves group mode and reaches DRAM.
	hotHydra := config.DefaultRRS(512)
	hotHydra.Tracker = config.TrackerHydra
	hy := withMitigation(sys, hotHydra)
	if d, ok := sim.Derive(hot, hy, opt); ok {
		t.Fatalf("gcc: Derive accepted a baseline whose hottest group reaches Hydra's group threshold (%+v)", d)
	}
	r, err = sim.Run(w, hy, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ctrl.TrackerMemOps == 0 {
		t.Errorf("gcc under RRS+Hydra at T_RH 512 made no tracker DRAM access; pick a hotter refusal case")
	}
}

// TestDeriveHydraTightAtProfileEdge checks the Hydra bound on real runs
// at its edge. With the group threshold at a baseline's hottest profiled
// group, Derive refuses and the simulated tracker does reach DRAM; one
// above it, Derive accepts and the simulation equals the derivation. A
// profile whose groups were narrower or wider than Hydra's would
// under- or over-count and fail one side; the workloads are chosen so
// that profiles of 64- and of 256-slot groups both fail here.
func TestDeriveHydraTightAtProfileEdge(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 2
	opt := sim.Options{Instructions: 20_000}
	for _, name := range []string{"gups", "mcf", "gcc", "lbm", "canneal"} {
		w, ok := trace.WorkloadByName(name, sys.Core.Cores)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		base, err := sim.Run(w, sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		var hottest int
		for _, bw := range base.Windows {
			hottest = max(hottest, int(bw.MaxGroupACT))
		}
		for _, gt := range []int{hottest, hottest + 1} {
			m := config.DefaultRRS(6 * 2 * gt) // swap rate 6: T_S = 2*gt
			m.Tracker = config.TrackerHydra
			hs := withMitigation(sys, m)
			if got := memctrl.HydraGroupThreshold(hs); got != gt {
				t.Fatalf("T_RH %d gives group threshold %d, want %d", m.TRH, got, gt)
			}
			d, ok := sim.Derive(base, hs, opt)
			if ok != (gt > hottest) {
				t.Errorf("%s: hottest group %d, threshold %d: Derive accepted = %v", name, hottest, gt, ok)
			}
			r, err := sim.Run(w, hs, opt)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case !ok && r.Ctrl.TrackerMemOps == 0:
				t.Errorf("%s: threshold %d refused, yet the tracker never reached DRAM", name, gt)
			case ok && !reflect.DeepEqual(stripHost(d), stripHost(r)):
				t.Errorf("%s: threshold %d derived, yet the simulation differs (tracker DRAM ops %d)",
					name, gt, r.Ctrl.TrackerMemOps)
			}
		}
	}
}

func withMitigation(sys config.System, m config.Mitigation) config.System {
	sys.Mitigation = m
	return sys
}

// TestDeriveBoundEdges pins the acceptance arithmetic on a synthetic
// baseline: under Misra-Gries a window is safe exactly when its hottest
// slot count plus ⌊ACTs/capacity⌋ stays below T_S, with the capacity
// memctrl gives the tracker over the compressed window; under Hydra,
// exactly when its hottest group stays below the group threshold T_S/2.
func TestDeriveBoundEdges(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 1
	sys.Mitigation = config.DefaultScaleSRS(1200)
	opt := sim.Options{Instructions: 1000}
	ts := sys.Mitigation.TS()

	// ACT_max over the default 0.4 ms window, plus the 16 spare entries.
	compressed := sys
	compressed.Timing.RefreshWindow = opt.Normalized(sys).WindowNS
	const capacity = 37
	if got := memctrl.MisraGriesCapacity(compressed); got != capacity {
		t.Fatalf("tracker capacity %d, want %d (ACT_max/T_S + 16 over the compressed window)", got, capacity)
	}

	// acts is chosen so ⌊acts/capacity⌋ = 3 while ⌈acts/capacity⌉ = 4.
	const acts = 4*capacity - 1
	base := func(maxACT uint32) *sim.Result {
		return &sim.Result{
			Mitigation: "baseline", Tracker: "misra-gries",
			PerCoreIPC: []float64{1}, MeanIPC: 1, Instructions: 1000,
			Windows: []sim.BankWindow{{MaxACT: 1, ACTs: 1}, {MaxACT: maxACT, ACTs: acts}},
		}
	}
	if _, ok := sim.Derive(base(uint32(ts-1-3)), sys, opt); !ok {
		t.Errorf("max %d + ⌊%d/%d⌋ = T_S-1 refused; it can never cross T_S = %d", ts-4, acts, capacity, ts)
	}
	if _, ok := sim.Derive(base(uint32(ts-3)), sys, opt); ok {
		t.Errorf("max %d + ⌊%d/%d⌋ = T_S accepted; the row may reach T_S = %d", ts-3, acts, capacity, ts)
	}

	hydra := sys
	hydra.Mitigation.Tracker = config.TrackerHydra
	gt := memctrl.HydraGroupThreshold(hydra)
	if gt != ts/2 {
		t.Fatalf("Hydra group threshold %d, want T_S/2 = %d", gt, ts/2)
	}
	grouped := func(maxGroup uint32) *sim.Result {
		r := base(1)
		r.Windows[0].MaxGroupACT = 1
		r.Windows[1].MaxGroupACT = maxGroup
		return r
	}
	if _, ok := sim.Derive(grouped(uint32(gt-1)), hydra, opt); !ok {
		t.Errorf("hottest group %d = T_S/2-1 refused; no group can reach Hydra's threshold %d", gt-1, gt)
	}
	if _, ok := sim.Derive(grouped(uint32(gt)), hydra, opt); ok {
		t.Errorf("hottest group %d = T_S/2 accepted; that group leaves Hydra's group mode", gt)
	}
}
