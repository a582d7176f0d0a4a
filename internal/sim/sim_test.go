package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

func quickOpts() Options {
	return Options{Instructions: 120_000, WindowNS: 200_000}
}

func wl(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, ok := trace.WorkloadByName(name, 4) // 4 cores for test speed
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	w.PerCore = w.PerCore[:4]
	return w
}

func TestBaselineRunProducesIPC(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	res, err := Run(wl(t, "povray"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanIPC <= 0.5 {
		t.Errorf("compute-bound povray IPC = %.3f, want > 0.5", res.MeanIPC)
	}
	if res.Cycles <= 0 || len(res.PerCoreIPC) != 4 {
		t.Errorf("result malformed: %+v", res)
	}
	if res.Mitigation != "baseline" {
		t.Errorf("Mitigation = %q", res.Mitigation)
	}
}

func TestMemoryIntensiveSlowerThanComputeBound(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	compute, err := Run(wl(t, "povray"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	memory, err := Run(wl(t, "mcf"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if memory.MeanIPC >= compute.MeanIPC {
		t.Errorf("mcf IPC %.3f >= povray IPC %.3f", memory.MeanIPC, compute.MeanIPC)
	}
}

func TestDeterminism(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	sys.Mitigation = config.DefaultSRS(1200)
	a, err := Run(wl(t, "gcc"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(wl(t, "gcc"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanIPC != b.MeanIPC || a.Cycles != b.Cycles || a.Mit.Swaps != b.Mit.Swaps {
		t.Errorf("same-seed runs diverged: %+v vs %+v", a, b)
	}
}

func TestHotWorkloadTriggersSwapsUnderRRS(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	sys.Mitigation = config.DefaultRRS(1200)
	res, err := Run(wl(t, "gcc"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mit.Swaps == 0 {
		t.Error("gcc under RRS at TRH=1200 performed no swaps")
	}
	if res.Ctrl.Mitigations == 0 {
		t.Error("no T_S crossings observed")
	}
	if res.MaxWindowACT == 0 {
		t.Error("no window ACT accounting")
	}
}

func TestColdWorkloadBarelySwaps(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	sys.Mitigation = config.DefaultRRS(1200)
	res, err := Run(wl(t, "povray"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mit.Swaps > 20 {
		t.Errorf("povray performed %d swaps; expected almost none", res.Mit.Swaps)
	}
}

func TestNormalizedPerfBelowOneForHotRRS(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	sys.Mitigation = config.DefaultRRS(1200)
	norm, rb, rm, err := NormalizedPerf(wl(t, "gcc"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if norm >= 1.0 {
		t.Errorf("gcc RRS normalized perf = %.4f, want < 1 (base %.3f vs %.3f)",
			norm, rb.MeanIPC, rm.MeanIPC)
	}
	if norm < 0.4 {
		t.Errorf("gcc RRS normalized perf = %.4f, implausibly low", norm)
	}
}

func TestScaleSRSPinsOutliersAndBeatsRRS(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	opt := Options{Instructions: 600_000, WindowNS: 400_000}

	sys.Mitigation = config.DefaultRRS(1200)
	rrsNorm, _, _, err := NormalizedPerf(wl(t, "gcc"), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	sys.Mitigation = config.DefaultScaleSRS(1200)
	scaleNorm, _, rm, err := NormalizedPerf(wl(t, "gcc"), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Mit.Pins == 0 {
		t.Error("Scale-SRS pinned no outliers on gcc")
	}
	if rm.LLC.PinnedHits == 0 {
		t.Error("pinned rows never served from LLC")
	}
	if scaleNorm <= rrsNorm {
		t.Errorf("Scale-SRS (%.4f) should outperform RRS (%.4f) on gcc", scaleNorm, rrsNorm)
	}
}

func TestMixWorkloadRuns(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	sys.Mitigation = config.DefaultScaleSRS(1200)
	res, err := Run(wl(t, "mix5"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanIPC <= 0 {
		t.Error("mix5 produced no IPC")
	}
}

func TestHydraTrackerRun(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	sys.Mitigation = config.DefaultRRS(1200)
	sys.Mitigation.Tracker = config.TrackerHydra
	res, err := Run(wl(t, "gcc"), sys, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tracker != "hydra" {
		t.Errorf("Tracker = %q", res.Tracker)
	}
	if res.Ctrl.TrackerMemOps == 0 {
		t.Error("Hydra generated no counter traffic on a hot workload")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	sys := config.Default()
	sys.Mitigation = config.Mitigation{Kind: config.MitigationRRS} // TRH=0
	if _, err := Run(wl(t, "povray"), sys, quickOpts()); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestComparatorsEndToEnd(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	opt := Options{Instructions: 400_000}

	sys.Mitigation = config.DefaultBlockHammer(1200)
	bhNorm, _, rbh, err := NormalizedPerf(wl(t, "gcc"), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rbh.Mitigation != "blockhammer" {
		t.Errorf("Mitigation = %q", rbh.Mitigation)
	}
	sys.Mitigation = config.DefaultScaleSRS(1200)
	scaleNorm, _, _, err := NormalizedPerf(wl(t, "gcc"), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	// §IX-A: throttling is a DoS channel on hot workloads; Scale-SRS
	// must be far gentler.
	if bhNorm >= scaleNorm {
		t.Errorf("BlockHammer (%.4f) should be slower than Scale-SRS (%.4f)", bhNorm, scaleNorm)
	}
	if bhNorm > 0.9 {
		t.Errorf("BlockHammer norm = %.4f on gcc; DoS effect missing", bhNorm)
	}

	sys.Mitigation = config.DefaultAQUA(1200)
	aquaNorm, _, raq, err := NormalizedPerf(wl(t, "gcc"), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if raq.Mitigation != "aqua" || raq.Mit.Swaps == 0 {
		t.Errorf("AQUA did not migrate: %+v", raq.Mit)
	}
	if aquaNorm <= bhNorm {
		t.Errorf("AQUA (%.4f) should beat BlockHammer (%.4f)", aquaNorm, bhNorm)
	}
}

func TestOpenPageOptionImprovesRowLocality(t *testing.T) {
	// libquantum streams long sequential runs; open-page should help.
	sys := config.Default()
	sys.Core.Cores = 4
	w := wl(t, "libquantum")
	closed, err := Run(w, sys, Options{Instructions: 300_000})
	if err != nil {
		t.Fatal(err)
	}
	open, err := Run(w, sys, Options{Instructions: 300_000, OpenPage: true})
	if err != nil {
		t.Fatal(err)
	}
	if open.MeanIPC <= closed.MeanIPC {
		t.Errorf("open page IPC %.4f <= closed %.4f on a streaming workload",
			open.MeanIPC, closed.MeanIPC)
	}
}

// TestWindowProfileCoversEveryActivation checks Result.Windows, the
// profile Derive trusts: one entry per bank for every refresh window
// the run crossed plus its final partial window, activation totals that
// add up to every activation of the (closed-page, unprotected) run, and
// hottest slots that agree with MaxWindowACT.
func TestWindowProfileCoversEveryActivation(t *testing.T) {
	sys := config.Default()
	sys.Core.Cores = 4
	opt := Options{Instructions: 120_000, WindowNS: 20_000}
	res, err := Run(wl(t, "gups"), sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	banks := sys.Geometry.TotalBanks()
	window := Cycles(opt.WindowNS * sys.Core.ClockGHz)
	rolls := int(res.Cycles / window)
	if rolls < 3 {
		t.Fatalf("only %d window rolls; shorten the window", rolls)
	}
	if want := (rolls + 1) * banks; len(res.Windows) != want {
		t.Fatalf("%d profile entries, want %d (%d banks x (%d rolls + the final window))",
			len(res.Windows), want, banks, rolls)
	}
	var acts uint64
	var hottest uint32
	for _, bw := range res.Windows {
		acts += uint64(bw.ACTs)
		hottest = max(hottest, bw.MaxACT)
	}
	if want := res.Ctrl.Reads + res.Ctrl.Writes; acts != want {
		t.Errorf("profile counts %d activations, the run issued %d", acts, want)
	}
	if hottest != res.MaxWindowACT {
		t.Errorf("profile's hottest slot %d, MaxWindowACT %d", hottest, res.MaxWindowACT)
	}
}
