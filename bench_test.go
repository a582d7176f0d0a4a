// Benchmark harness: one testing.B target per table and figure of the
// paper, plus ablation and microarchitecture benches. Security figures
// run their full analytical sweep per iteration and report the headline
// quantity as a custom metric; performance figures run a reduced
// workload subset through the cycle simulator (the full 78-workload
// sweep is available via cmd/rowswap-figures).
//
// Run everything:  go test -bench=. -benchmem
package repro_test

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/tracker"
)

// benchWorkers sizes the experiment-matrix worker pool for the
// simulator-backed benchmarks (0 = GOMAXPROCS, 1 = serial):
//
//	go test -bench QuickMatrix -workers 4 .
var benchWorkers = flag.Int("workers", 0, "matrix worker pool size (0 = GOMAXPROCS, 1 = serial)")

// benchPerfOpts is the reduced configuration for simulator-backed
// figures: 3 representative workloads, 4 cores, short traces.
func benchPerfOpts() report.PerfOptions {
	return report.PerfOptions{
		Workloads: []string{"gcc", "gups", "povray"},
		Cores:     4,
		Workers:   *benchWorkers,
		Sim:       sim.Options{Instructions: 1_000_000},
	}
}

// --- Tables ---

func BenchmarkTable01ThresholdHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Table1(io.Discard)
	}
	b.ReportMetric(config.ThresholdReductionFactor(), "x-reduction")
}

func BenchmarkTable04Storage(b *testing.B) {
	m := storage.NewModel()
	for i := 0; i < b.N; i++ {
		report.Table4(io.Discard)
	}
	b.ReportMetric(m.Reduction(1200), "x-storage-reduction@1200")
}

func BenchmarkTable05Power(b *testing.B) {
	m := power.NewModel()
	for i := 0; i < b.N; i++ {
		report.Table5(io.Discard)
	}
	b.ReportMetric(100*(1-m.ScaleSRS(4800).SRAMmW/m.RRS(4800).SRAMmW), "%-sram-saving")
}

// --- Security figures ---

func BenchmarkFig01aTimeToBreakRRSRandomGuess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Fig1a(io.Discard)
	}
	b.ReportMetric(attack.NewRandomGuessRRS(4800, 6).TimeToBreakDays(0), "days-to-break@4800r6")
}

func BenchmarkFig06JuggernautTimeToBreak(b *testing.B) {
	var days float64
	for i := 0; i < b.N; i++ {
		report.Fig6(io.Discard, 0)
		_, tt := attack.NewJuggernautRRS(4800, 6).BestRounds()
		days = tt / config.Day
	}
	b.ReportMetric(days*24, "hours-to-break@4800r6")
}

func BenchmarkFig06MonteCarlo(b *testing.B) {
	m := attack.NewJuggernautRRS(4800, 6)
	n, _ := m.BestRounds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.MonteCarlo(m, n, 10, 1)
	}
}

// BenchmarkRunBatchDirect times the Monte-Carlo direct regime on the
// golden fixture's direct cell (Juggernaut vs RRS at T_RH 4800, 6 swaps,
// 1100 biasing rounds: k = 2 hits at G/R ~ 3e-3, about 2e5 refresh
// windows per trial), one 25-trial batch per iteration.
func BenchmarkRunBatchDirect(b *testing.B) {
	spec := attack.TrialSpec{Model: attack.NewJuggernautRRS(4800, 6), Rounds: 1100}
	const trials = 25
	var windows uint64
	for i := 0; i < b.N; i++ {
		windows += spec.RunBatch(0xf16, i, trials).SumLo
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows), "ns/window")
	b.ReportMetric(float64(b.N*trials)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkFig07RequiredGuesses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Fig7(io.Discard)
	}
}

func BenchmarkFig10SRSTimeToBreak(b *testing.B) {
	var years float64
	for i := 0; i < b.N; i++ {
		report.Fig10(io.Discard)
		_, tt := attack.NewJuggernautSRS(4800, 6).BestRounds()
		years = tt / config.Year
	}
	b.ReportMetric(years, "years-to-break-srs@4800r6")
}

func BenchmarkFig13OutlierAppearance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Fig13(io.Discard)
	}
	b.ReportMetric(attack.NewOutlierModel(4800, 3).TimeToAppearDays(3, 3), "days-to-3-outliers@r3")
}

func BenchmarkSecMultiBankAttack(b *testing.B) {
	m := attack.NewJuggernautRRS(4800, 6)
	m.Banks = 16
	var days float64
	for i := 0; i < b.N; i++ {
		_, tt := m.BestRounds()
		days = tt / config.Day
	}
	b.ReportMetric(days, "days-to-break-16bank")
}

func BenchmarkSecOpenPagePolicy(b *testing.B) {
	m := attack.NewJuggernautRRS(4800, 6)
	m.ACTPeriodNS = 60
	var days float64
	for i := 0; i < b.N; i++ {
		_, tt := m.BestRounds()
		days = tt / config.Day
	}
	b.ReportMetric(days, "days-to-break-openpage")
}

func BenchmarkSecDDR5(b *testing.B) {
	m := attack.NewJuggernautRRS(3100, 10)
	m.Timing = config.DDR5()
	var days float64
	for i := 0; i < b.N; i++ {
		_, tt := m.BestRounds()
		days = tt / config.Day
	}
	b.ReportMetric(days, "days-to-break-ddr5@3100r10")
}

// BenchmarkBestRoundsFig10 times the §III-C optimal-round search over
// Figure 10's 15 RRS models (T_RH 4800/2400/1200 x swap rates 6-10),
// the search every security-catalogue build and Fig. 10 render runs.
func BenchmarkBestRoundsFig10(b *testing.B) {
	var models []attack.Model
	for _, trh := range []int{4800, 2400, 1200} {
		for rate := 6; rate <= 10; rate++ {
			models = append(models, attack.NewJuggernautRRS(trh, rate))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			m.BestRounds()
		}
	}
}

// BenchmarkPlanSecurityAll times planning the whole security evaluation
// (the security half of `rowswap-sweep plan -all`).
func BenchmarkPlanSecurityAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.PlanSecurity(report.SecurityFigureIDs()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Performance figures (reduced workload subset) ---

// benchFigure times b.N runs of a performance figure. The process-wide
// memo is emptied before each iteration, with the timer stopped, so
// every timed iteration simulates the figure's whole matrix instead of
// reading the previous iteration's results.
func benchFigure(b *testing.B, fig func() ([]report.PerfRow, error)) []report.PerfRow {
	b.Helper()
	var rows []report.PerfRow
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		report.ResetRunMemo()
		b.StartTimer()
		var err error
		if rows, err = fig(); err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

func BenchmarkFig04UnswapVsNoUnswap(b *testing.B) {
	benchFigure(b, func() ([]report.PerfRow, error) { return report.Fig4(io.Discard, benchPerfOpts()) })
}

func BenchmarkFig12SRSvsRRSPerf(b *testing.B) {
	benchFigure(b, func() ([]report.PerfRow, error) { return report.Fig12(io.Discard, benchPerfOpts()) })
}

func BenchmarkFig14ScaleSRSvsRRS(b *testing.B) {
	rows := benchFigure(b, func() ([]report.PerfRow, error) { return report.Fig14(io.Discard, benchPerfOpts()) })
	for _, r := range rows {
		if r.Workload == "gcc" {
			b.ReportMetric((1-r.Norm["rrs"])*100, "%-gcc-rrs-slowdown")
			b.ReportMetric((1-r.Norm["scale-srs"])*100, "%-gcc-scale-slowdown")
		}
	}
}

func BenchmarkFig15SensitivityTRH(b *testing.B) {
	benchFigure(b, func() ([]report.PerfRow, error) { return report.Fig15(io.Discard, benchPerfOpts()) })
}

func BenchmarkFig16HydraTracker(b *testing.B) {
	benchFigure(b, func() ([]report.PerfRow, error) { return report.Fig16(io.Discard, benchPerfOpts()) })
}

// BenchmarkComparatorsIXA: BlockHammer and AQUA vs Scale-SRS (§IX-A).
func BenchmarkComparatorsIXA(b *testing.B) {
	benchFigure(b, func() ([]report.PerfRow, error) { return report.Comparators(io.Discard, benchPerfOpts(), 1200) })
}

// --- Simulation-kernel benchmarks (perf trajectory) ---

// quickMatrixOpts is the 12-workload quick matrix used to track the
// simulator's own performance: Fig. 14's two configs over every suite.
func quickMatrixOpts(workers int, kernel sim.Kernel) report.PerfOptions {
	return report.PerfOptions{
		Workloads: report.QuickWorkloads,
		Cores:     4,
		Workers:   workers,
		Sim:       sim.Options{Instructions: 150_000, Kernel: kernel},
	}
}

// kernelBench collects the quick-matrix wall-clock measurements that
// TestMain serializes into BENCH_kernel.json after a -bench run.
var kernelBench struct {
	sync.Mutex
	parallelEventSecs float64
	serialEventSecs   float64
	serialCycleSecs   float64
	warmCacheSecs     float64
	workers           int
	// simulatedRuns is how many of a timed matrix's 36 cells sim.Run
	// simulated; the rest were derived from their baseline. Which cells
	// derive depends on the cells alone, so every variant agrees.
	simulatedRuns float64
}

// timeQuickMatrix runs one untimed warm-up matrix (it fills the shared
// trace-stream cache, and the persistent cache when popt.CacheDir is
// set), then times b.N matrices through benchFigure, so every timed
// iteration resolves all 36 cells (12 baselines + 24 mitigated runs)
// afresh, regardless of b.N. It returns seconds per matrix and records
// how many cells per matrix were simulated rather than derived from
// their baseline (sim.Derive): writeKernelBench's throughput math
// divides by those alone.
func timeQuickMatrix(b *testing.B, popt report.PerfOptions) float64 {
	b.Helper()
	report.ResetRunMemo()
	if _, err := report.Fig14(io.Discard, popt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	before, _ := report.CellCounts()
	benchFigure(b, func() ([]report.PerfRow, error) { return report.Fig14(io.Discard, popt) })
	after, _ := report.CellCounts()
	secs := b.Elapsed().Seconds() / float64(b.N)
	runs := float64(after-before) / float64(b.N)
	b.ReportMetric(secs, "s/matrix")
	b.ReportMetric(runs, "sim-runs/matrix")
	if popt.CacheDir == "" { // a warm cache serves cells without simulating them
		kernelBench.Lock()
		kernelBench.simulatedRuns = runs
		kernelBench.Unlock()
	}
	return secs
}

// BenchmarkQuickMatrix is the product path: the 12-workload matrix on
// the event-scheduled kernel with a full worker pool.
func BenchmarkQuickMatrix(b *testing.B) {
	workers := *benchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	secs := timeQuickMatrix(b, quickMatrixOpts(workers, sim.KernelEvent))
	kernelBench.Lock()
	recordMinSecs(&kernelBench.parallelEventSecs, secs)
	kernelBench.workers = workers
	kernelBench.Unlock()
}

// recordMinSecs keeps the fastest measurement across repeated benchmark
// invocations (go test -count=N): wall-clock noise on shared runners is
// strictly additive, so the minimum is the least-contaminated estimate
// of the kernel's actual speed. Callers hold kernelBench.Lock.
func recordMinSecs(dst *float64, secs float64) {
	if *dst == 0 || secs < *dst {
		*dst = secs
	}
}

// BenchmarkQuickMatrixSerialEvent is the single-threaded event-kernel
// figure: the same matrix with a one-worker pool. Recording it next to
// the parallel figure regression-gates both paths — a scheduler or
// contention regression shows up in their ratio even when one of them
// happens to hold steady.
func BenchmarkQuickMatrixSerialEvent(b *testing.B) {
	secs := timeQuickMatrix(b, quickMatrixOpts(1, sim.KernelEvent))
	kernelBench.Lock()
	recordMinSecs(&kernelBench.serialEventSecs, secs)
	kernelBench.Unlock()
}

// BenchmarkQuickMatrixSerialCycleStepped is the pre-refactor baseline:
// the same matrix run serially on the legacy cycle-stepped kernel. The
// ratio to BenchmarkQuickMatrix is the refactor's headline speedup.
func BenchmarkQuickMatrixSerialCycleStepped(b *testing.B) {
	secs := timeQuickMatrix(b, quickMatrixOpts(1, sim.KernelCycle))
	kernelBench.Lock()
	recordMinSecs(&kernelBench.serialCycleSecs, secs)
	kernelBench.Unlock()
}

// BenchmarkQuickMatrixWarmCache is the repeat-invocation path: the same
// matrix with the persistent result cache (internal/simcache) fully
// populated by the warm-up, so every simulation — baselines included —
// is served from disk. The process-wide memo is emptied before each
// timed iteration to model a fresh process, exactly what a repeated
// CLI/CI invocation sees. The ratio to
// BenchmarkQuickMatrixSerialCycleStepped is what a re-run of any figure
// sweep gains.
func BenchmarkQuickMatrixWarmCache(b *testing.B) {
	workers := *benchWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	popt := quickMatrixOpts(workers, sim.KernelEvent)
	popt.CacheDir = b.TempDir()
	secs := timeQuickMatrix(b, popt)
	kernelBench.Lock()
	recordMinSecs(&kernelBench.warmCacheSecs, secs)
	kernelBench.Unlock()
}

// TestMain emits BENCH_kernel.json when both quick-matrix variants ran
// (go test -bench QuickMatrix .), so future PRs can track the
// simulator's perf trajectory machine-readably.
func TestMain(m *testing.M) {
	// Pin the harness to every hardware thread. The bench file once
	// recorded gomaxprocs: 1 from an inherited environment cap, which
	// silently turned the "parallel" figure into a serial one; pinning
	// here makes the recorded parallel/serial pair trustworthy on any
	// runner.
	runtime.GOMAXPROCS(runtime.NumCPU())
	code := m.Run()
	writeKernelBench()
	os.Exit(code)
}

func writeKernelBench() {
	kernelBench.Lock()
	defer kernelBench.Unlock()
	if kernelBench.parallelEventSecs == 0 || kernelBench.serialCycleSecs == 0 {
		return
	}
	// Simulated instructions per timed matrix: 4 cores x 150k for each
	// of the 36 cells (12 baselines + 24 mitigated) that sim.Run
	// simulated. timeQuickMatrix empties the memo before each timed
	// iteration, so every cell is resolved afresh at any b.N; cells
	// derived from their baseline ran no kernel and are not counted.
	matrixInstructions := kernelBench.simulatedRuns * 4 * 150_000
	regimes, regimeCycles := measureRegimeBreakdown()
	payload := map[string]any{
		"benchmark":                 "QuickMatrix",
		"workloads":                 len(report.QuickWorkloads),
		"cores":                     4,
		"instructions_per_core":     150_000,
		"workers":                   kernelBench.workers,
		"gomaxprocs":                runtime.GOMAXPROCS(0),
		"serial_cycle_seconds":      kernelBench.serialCycleSecs,
		"parallel_event_seconds":    kernelBench.parallelEventSecs,
		"speedup":                   kernelBench.serialCycleSecs / kernelBench.parallelEventSecs,
		"approx_sim_ips":            matrixInstructions / kernelBench.parallelEventSecs,
		"approx_sim_ips_pre_reform": matrixInstructions / kernelBench.serialCycleSecs,
		"simulated_runs":            kernelBench.simulatedRuns,
		"derived_runs":              36 - kernelBench.simulatedRuns,
		"hot_path":                  measureHotPaths(),
	}
	if kernelBench.serialEventSecs > 0 {
		payload["serial_event_seconds"] = kernelBench.serialEventSecs
		payload["approx_sim_ips_serial"] = matrixInstructions / kernelBench.serialEventSecs
	}
	if regimeCycles > 0 {
		payload["regime_breakdown"] = map[string]any{
			"compute_cycles":   regimes.ComputeCycles,
			"fill_cycles":      regimes.FillCycles,
			"drain_cycles":     regimes.DrainCycles,
			"stall_cycles":     regimes.StallCycles,
			"stepped_cycles":   regimes.SteppedCycles,
			"ticks":            regimes.Ticks,
			"core_cycles":      regimeCycles,
			"batched_fraction": float64(regimes.BatchedCycles()) / float64(regimeCycles),
		}
	}
	if kernelBench.warmCacheSecs > 0 {
		payload["warm_cache_seconds"] = kernelBench.warmCacheSecs
		payload["warm_cache_speedup"] = kernelBench.serialCycleSecs / kernelBench.warmCacheSecs
	}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return
	}
	os.WriteFile("BENCH_kernel.json", append(data, '\n'), 0o644)
}

// measureRegimeBreakdown reruns the quick matrix's 24 mitigated cells
// once on the event kernel and sums the cores' regime counters: which
// closed-form path replayed how many cycles, and whether anything fell
// back to per-cycle stepping (the grid tests pin that to zero). The
// per-run results the timed benchmarks produce are discarded inside
// report.Fig14, so this is measured separately here.
func measureRegimeBreakdown() (cpu.RegimeStats, int64) {
	var total cpu.RegimeStats
	var coreCycles int64
	for _, name := range report.QuickWorkloads {
		w, ok := trace.WorkloadByName(name, 4)
		if !ok {
			continue
		}
		for _, mit := range []config.Mitigation{
			config.DefaultRRS(1200),
			config.DefaultScaleSRS(1200),
		} {
			sys := config.Default()
			sys.Core.Cores = 4
			sys.Mitigation = mit
			res, err := sim.Run(w, sys, sim.Options{Instructions: 150_000, Kernel: sim.KernelEvent})
			if err != nil {
				continue
			}
			total.Add(res.Regimes)
			coreCycles += res.Cycles * 4
		}
	}
	return total, coreCycles
}

// measureHotPaths times the three data paths the batched/SoA kernel
// pass restructured — generator slab fill, the per-slot activation
// accounting, and the LLC probe — and returns them for the hot_path
// section of BENCH_kernel.json, so the aggregate sim-IPS trajectory
// stays attributable to its components. Fixed iteration counts keep the
// measurement cheap (well under a second) and deterministic in shape.
func measureHotPaths() map[string]any {
	geo := config.DefaultGeometry()
	p, _ := trace.ProfileByName("gcc")

	// Generator bulk fill: the NextBatch sampling+address pipeline.
	const fillRecords = 1 << 21
	gb := trace.NewGenerator(p, geo, 12345).(trace.BatchStream)
	slab := make([]trace.Record, 4096)
	start := time.Now()
	for n := 0; n < fillRecords; {
		n += gb.NextBatch(slab)
	}
	batchRate := fillRecords / time.Since(start).Seconds()

	// Legacy per-record fill, for attribution of the batching win.
	const nextRecords = 1 << 19
	gn := trace.NewGenerator(p, geo, 12345)
	start = time.Now()
	for i := 0; i < nextRecords; i++ {
		gn.Next()
	}
	nextRate := nextRecords / time.Since(start).Seconds()

	// recordACT via Bank.Access over a random-slot sequence: the
	// pending-log append, its fold into the packed epoch counters every
	// 1024 ACTs, plus the bank timing updates.
	sys := config.Default()
	mem := dram.NewMemory(sys.Geometry, dram.FromConfig(sys.Timing, sys.Core.ClockGHz))
	tm := mem.Timing()
	rng := stats.NewRNG(9)
	slots := make([]dram.RowID, 8192)
	for i := range slots {
		slots[i] = dram.RowID(rng.Intn(sys.Geometry.RowsPerBank))
	}
	const acts = 1 << 21
	bk := mem.Bank(0)
	start = time.Now()
	for i := 0; i < acts; i++ {
		bk.Access(slots[i%len(slots)], false, dram.Cycles(i)*4, tm)
	}
	actNs := time.Since(start).Seconds() * 1e9 / acts
	mem.Recycle()

	// LLC probe (same shape as BenchmarkLLCAccess).
	l := cache.New(config.DefaultLLC(), 128)
	addrs := make([]uint64, 8192)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<26)) &^ 63
	}
	const probes = 1 << 21
	start = time.Now()
	for i := 0; i < probes; i++ {
		a := addrs[i%len(addrs)]
		l.Access(a, i%3 == 0, a>>13)
	}
	llcNs := time.Since(start).Seconds() * 1e9 / probes

	return map[string]any{
		"stream_batch_records_per_sec": batchRate,
		"stream_next_records_per_sec":  nextRate,
		"record_act_ns_per_op":         actNs,
		"llc_access_ns_per_op":         llcNs,
	}
}

// --- Ablations (design decisions called out in DESIGN.md) ---

// AblationSwapRate: Scale-SRS's reduced swap rate is the scalability
// lever — compare swap rate 3 vs 6 at T_RH 1200 on the hot workload.
func BenchmarkAblationSwapRate(b *testing.B) {
	w, _ := trace.WorkloadByName("gcc", 4)
	opt := sim.Options{Instructions: 800_000}
	for i := 0; i < b.N; i++ {
		for _, rate := range []int{3, 6} {
			sys := config.Default()
			sys.Core.Cores = 4
			sys.Mitigation = config.DefaultScaleSRS(1200)
			sys.Mitigation.SwapRate = rate
			if _, err := sim.Run(w, sys, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// AblationPlaceBackRate: SRS's lazy place-back vs the window-end bulk
// unravel of chained swaps (the Fig. 4 motivation).
func BenchmarkAblationPlaceBackRate(b *testing.B) {
	w, _ := trace.WorkloadByName("gcc", 4)
	opt := sim.Options{Instructions: 800_000}
	for i := 0; i < b.N; i++ {
		sys := config.Default()
		sys.Core.Cores = 4
		sys.Mitigation = config.DefaultSRS(1200) // lazy place-back
		if _, err := sim.Run(w, sys, opt); err != nil {
			b.Fatal(err)
		}
		sys.Mitigation = config.DefaultRRS(1200) // chained, bulk unravel
		sys.Mitigation.ImmediateUnswap = false
		if _, err := sim.Run(w, sys, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// AblationTrackerChoice: Misra-Gries (on-chip) vs Hydra (memory-backed).
func BenchmarkAblationTrackerChoice(b *testing.B) {
	w, _ := trace.WorkloadByName("gcc", 4)
	opt := sim.Options{Instructions: 800_000}
	for i := 0; i < b.N; i++ {
		for _, trk := range []config.TrackerKind{config.TrackerMisraGries, config.TrackerHydra} {
			sys := config.Default()
			sys.Core.Cores = 4
			sys.Mitigation = config.DefaultRRS(1200)
			sys.Mitigation.Tracker = trk
			if _, err := sim.Run(w, sys, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// AblationCompactRIT: the §VIII-4 single-table tagged RIT vs the split
// real/mirrored layout — identical behaviour, nearly half the RIT SRAM.
func BenchmarkAblationCompactRIT(b *testing.B) {
	sys := config.Default()
	sys.Geometry.Channels = 1
	sys.Geometry.BanksPerRnk = 2
	sys.Geometry.RowsPerBank = 8192
	sys.Mitigation = config.DefaultSRS(4800)
	for i := 0; i < b.N; i++ {
		for _, compact := range []bool{false, true} {
			mem := dram.NewMemory(sys.Geometry, dram.FromConfig(sys.Timing, sys.Core.ClockGHz))
			var s *core.SRS
			if compact {
				s = core.NewSRSCompact(mem, sys, sys.Mitigation, stats.NewRNG(1))
			} else {
				s = core.NewSRS(mem, sys, sys.Mitigation, stats.NewRNG(1))
			}
			for j := 0; j < 500; j++ {
				s.OnAggressor(j%2, dram.RowID(j%200), dram.Cycles(j)*20_000)
			}
		}
	}
	m := storage.NewModel()
	b.ReportMetric(m.ScaleSRS(1200).RITBytes/m.ScaleSRSCompact(1200).RITBytes, "x-rit-storage-saving")
}

// --- Microarchitecture benches ---

func BenchmarkSwapOperation(b *testing.B) {
	sys := config.Default()
	sys.Mitigation = config.DefaultSRS(4800)
	mem := dram.NewMemory(sys.Geometry, dram.FromConfig(sys.Timing, sys.Core.ClockGHz))
	s := core.NewSRS(mem, sys, sys.Mitigation, stats.NewRNG(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnAggressor(i%32, dram.RowID(i%1000), dram.Cycles(i)*20_000)
		// End an epoch periodically, as the controller does: the RIT is
		// provisioned per epoch and relies on unlocking for eviction.
		if i%1000 == 999 {
			s.OnWindowEnd(dram.Cycles(i) * 20_000)
		}
	}
}

func BenchmarkTrackerRecordMisraGries(b *testing.B) {
	t := tracker.NewMisraGries(32, 1700)
	rng := stats.NewRNG(2)
	rows := make([]int32, 4096)
	for i := range rows {
		rows[i] = int32(rng.Intn(128 * 1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.RecordACT(i%32, rows[i%len(rows)])
	}
}

func BenchmarkTrackerRecordHydra(b *testing.B) {
	t := tracker.NewHydra(32, 128*1024, 128, 400, 2048)
	rng := stats.NewRNG(3)
	rows := make([]int32, 4096)
	for i := range rows {
		rows[i] = int32(rng.Intn(128 * 1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.RecordACT(i%32, rows[i%len(rows)])
	}
}

func BenchmarkLLCAccess(b *testing.B) {
	l := cache.New(config.DefaultLLC(), 128)
	rng := stats.NewRNG(4)
	addrs := make([]uint64, 8192)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<26)) &^ 63
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		l.Access(a, i%3 == 0, a>>13)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p, _ := trace.ProfileByName("gcc")
	g := trace.NewGenerator(p, config.DefaultGeometry(), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkStreamBatch measures the bulk generator fill per record —
// the batched counterpart of BenchmarkTraceGeneration.
func BenchmarkStreamBatch(b *testing.B) {
	p, _ := trace.ProfileByName("gcc")
	g := trace.NewGenerator(p, config.DefaultGeometry(), 5).(trace.BatchStream)
	slab := make([]trace.Record, 4096)
	b.ResetTimer()
	for n := 0; n < b.N; {
		want := b.N - n
		if want > len(slab) {
			want = len(slab)
		}
		n += g.NextBatch(slab[:want])
	}
}

// BenchmarkRecordACT measures the per-activation accounting path: a
// closed-page access on a random slot of a random bank, logging the ACT
// and folding the log into the packed epoch-stamped counters exactly as
// the memory controller's accesses do.
func BenchmarkRecordACT(b *testing.B) {
	sys := config.Default()
	mem := dram.NewMemory(sys.Geometry, dram.FromConfig(sys.Timing, sys.Core.ClockGHz))
	tm := mem.Timing()
	rng := stats.NewRNG(6)
	n := 8192
	banks := make([]*dram.Bank, n)
	slots := make([]dram.RowID, n)
	for i := 0; i < n; i++ {
		banks[i] = mem.Bank(rng.Intn(mem.NumBanks()))
		slots[i] = dram.RowID(rng.Intn(sys.Geometry.RowsPerBank))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		banks[i%n].Access(slots[i%n], false, dram.Cycles(i)*4, tm)
	}
	b.StopTimer()
	mem.Recycle()
}

func BenchmarkEndToEndSimCyclePerInstr(b *testing.B) {
	w, _ := trace.WorkloadByName("mcf", 2)
	sys := config.Default()
	sys.Core.Cores = 2
	sys.Mitigation = config.DefaultScaleSRS(1200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w, sys, sim.Options{Instructions: 50_000}); err != nil {
			b.Fatal(err)
		}
	}
}
