// Package sim ties the substrates into the whole-system performance
// simulator used for the paper's evaluation (§VI): 8 trace-driven OoO
// cores share an 8 MB LLC (with pin-buffer) in front of a 2-channel DDR4
// memory system whose controller runs an aggressor tracker and one of
// the Row Hammer mitigations. The primary metric is IPC normalized to
// the unprotected baseline.
//
// Time compression: the paper simulates 1 B instructions per core across
// multiple 64 ms refresh windows on a server farm. This reproduction
// runs millions of instructions per core, so the refresh window is
// proportionally compressed (default 0.5 ms) while all thresholds (T_S,
// T_RH) and per-operation latencies (t_swap, tRC, ...) keep their real
// values. Hot-row profiles are calibrated so rows cross T_S within a
// compressed window the way the paper's hot workloads cross it within
// 64 ms, preserving the swap-rate-driven slowdown shape.
//
// Time advance: the simulation is event-scheduled. Every component
// exposes the next cycle at which it can interact with shared state —
// cpu.Core.NextWork (ROB-stall release, the next memory issue at the end
// of a batched compute stretch, budget crossing), memctrl.Controller.
// NextWork (refresh deadlines and the mitigation's paced place-backs) —
// and the kernel advances `now` directly to the minimum pending deadline
// (clamped to the refresh-window boundary) instead of incrementing cycle
// by cycle. The controller's Tick is a no-op before its advertised
// deadline; a core's skipped cycles are provably core-local (no memory
// issue, no retirement the kernel can observe) and cpu.Core.Tick replays
// them in closed form on wake-up. Either way the event kernel is
// cycle-for-cycle identical to the legacy cycle-stepped loop
// (KernelCycle, kept for differential testing) while skipping both the
// long memory-stall gaps of memory-bound workloads and the multi-cycle
// fetch/retire runs of compute-bound ones.
package sim

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracker"
)

// Kernel selects the simulation time-advance strategy.
type Kernel int

const (
	// KernelEvent advances time directly to the next component deadline
	// (the default).
	KernelEvent Kernel = iota
	// KernelCycle is the legacy cycle-stepped loop that increments `now`
	// by one cycle at a time. It produces bit-identical results to
	// KernelEvent and is retained as the differential-testing oracle.
	KernelCycle
)

// String returns the kernel's name.
func (k Kernel) String() string {
	if k == KernelCycle {
		return "cycle"
	}
	return "event"
}

// Cycles mirrors dram.Cycles.
type Cycles = dram.Cycles

// Options controls a simulation run.
type Options struct {
	// Instructions is the per-core retirement budget (default 1,000,000).
	Instructions int64
	// WindowNS overrides the refresh-window length in nanoseconds
	// (default 500,000 ns = 0.5 ms; see the package comment).
	WindowNS float64
	// LLCLatency is the LLC hit latency in CPU cycles (default 40).
	LLCLatency Cycles
	// Seed perturbs all randomized structures (default: system seed).
	Seed uint64
	// MaxCycles aborts a run that fails to converge (default 2e9).
	MaxCycles Cycles
	// OpenPage selects the open-page row-buffer policy for demand
	// accesses (the evaluation default is closed-page, §VI).
	OpenPage bool
	// SwapLatencyScale compresses the swap/unswap blocking latencies
	// (t_swap, t_reswap) to partially track the refresh-window
	// compression; the activation sequences of each swap keep their real
	// cost. Default 1/3, calibrated so the per-workload slowdowns at
	// T_RH=1200 land in the paper's reported range (Fig. 14).
	SwapLatencyScale float64
	// Kernel selects the time-advance strategy (default KernelEvent).
	Kernel Kernel
}

func (o Options) withDefaults(sys config.System) Options {
	if o.Instructions <= 0 {
		o.Instructions = 1_500_000
	}
	if o.WindowNS <= 0 {
		o.WindowNS = 400_000
	}
	if o.LLCLatency <= 0 {
		o.LLCLatency = 40
	}
	if o.Seed == 0 {
		o.Seed = sys.Seed
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 2_000_000_000
	}
	if o.SwapLatencyScale <= 0 {
		o.SwapLatencyScale = 1.0 / 3
	}
	return o
}

// Normalized returns the options with every default resolved against
// sys, exactly as Run will see them. Persistent-cache keys must be
// computed from normalized options so a zero value and its explicit
// default share one cache entry.
func (o Options) Normalized(sys config.System) Options { return o.withDefaults(sys) }

// Result reports the outcome of one run.
type Result struct {
	Workload   string
	Mitigation string
	Tracker    string
	TRH        int

	PerCoreIPC []float64
	MeanIPC    float64
	Cycles     Cycles

	LLC  cache.Stats
	Ctrl memctrl.Stats
	Mit  core.Stats

	// MaxWindowACT is the hottest per-slot activation count observed in
	// any window (Row Hammer exposure of the run).
	MaxWindowACT uint32
	// Windows profiles every refresh window of the run, the final
	// partial one included: one entry per bank, in bank order, window
	// after window. Derive reads a baseline's profile to prove a
	// mitigated run's tracker stays inert.
	Windows []BankWindow

	// Instructions is the total number of budgeted instructions simulated
	// across all cores.
	Instructions int64
	// WallSeconds is the host wall-clock time the run took; SimIPS is
	// simulated instructions per wall-second (Instructions/WallSeconds).
	// Both are host-performance instrumentation, not simulation outputs:
	// they vary run to run and must be ignored by determinism checks.
	WallSeconds float64
	SimIPS      float64
	// Kernel names the time-advance strategy that produced the run.
	Kernel string
	// Regimes sums the cores' event-kernel batching counters: how many
	// skipped cycles each closed-form regime replayed and how many fell
	// back to per-cycle stepping. Like WallSeconds, this instruments the
	// kernel rather than the simulated machine — a cycle-stepped run
	// reports only Ticks — so determinism checks must ignore it.
	Regimes cpu.RegimeStats
	// Resume is set on a Result that Resume built, and says how. Host
	// instrumentation too: Run would have produced the same Result
	// without it, and it is never serialized.
	Resume *Resumption `json:"-"`
}

// BankWindow is one bank's activity in one refresh window: its hottest
// slot's activations, its total activations, and the activations of its
// hottest aligned group of memctrl.HydraGroupRows slots.
type BankWindow struct {
	MaxACT      uint32
	ACTs        uint32
	MaxGroupACT uint32
}

// issuer adapts the LLC + memory controller to the cpu.Issuer interface.
type issuer struct {
	sys  config.System
	geo  config.Geometry
	llc  *cache.LLC
	ctrl *memctrl.Controller
	opt  Options
	tape *tape // a taped baseline's issue log, nil otherwise
}

func rowKeyOf(loc dram.Location) uint64 {
	return uint64(loc.BankIdx)<<32 | uint64(uint32(loc.Row))
}

// forceDecodeAddr disables the record-carried location cache so the
// differential test can prove the decoded and cached paths produce
// identical results. Never set outside tests.
var forceDecodeAddr = false

// forcePerRecordStream replaces the shared batched streams with private
// per-record generators (hidden behind a Next-only wrapper, so the core
// exercises the trace.Batched adapter) — the legacy PR 6 configuration.
// The batched-pipeline differential oracle flips this to prove both
// paths produce bit-identical Results. Never set outside tests.
var forcePerRecordStream = false

// perRecordOnly hides NextBatch from a Stream so trace.Batched must fall
// back to its per-record adapter.
type perRecordOnly struct{ s trace.Stream }

func (p perRecordOnly) Next() trace.Record { return p.s.Next() }
func (p perRecordOnly) Name() string       { return p.s.Name() }

// Issue implements cpu.Issuer.
func (is *issuer) Issue(coreID int, rec trace.Record, now Cycles) Cycles {
	if is.tape != nil {
		is.tape.issues.add(uint8(coreID))
	}
	// The synthetic generator pre-decodes every address it composes
	// (trace.Record.Loc); records from external text traces fall back
	// to dram.DecodeAddr here. The two are interchangeable because
	// EncodeLoc/DecodeAddr are exact inverses.
	loc := rec.Loc
	if !rec.HasLoc || forceDecodeAddr {
		loc = dram.DecodeAddr(is.geo, rec.Addr)
	}
	key := rowKeyOf(loc)

	if rec.NoAlloc && !is.llc.IsPinned(key) {
		// Streaming access: straight to DRAM.
		done := is.ctrl.Access(loc, rec.Write, now)
		if rec.Write {
			return now + 1 // stores retire via the write buffer
		}
		return done
	}

	res := is.llc.Access(rec.Addr, rec.Write, key)
	if res.WritebackValid {
		wb := dram.DecodeAddr(is.geo, res.Writeback)
		is.ctrl.Access(wb, true, now) // fire-and-forget writeback
	}
	if res.Hit {
		return now + is.opt.LLCLatency
	}
	done := is.ctrl.Access(loc, rec.Write, now)
	if rec.Write {
		return now + is.opt.LLCLatency
	}
	return done + is.opt.LLCLatency
}

// Run simulates the workload on the given system configuration.
func Run(w trace.Workload, sys config.System, opt Options) (*Result, error) {
	return run(w, sys, opt, false)
}

// RunTaped is Run that, when the run is an unprotected baseline, also
// records a tape (see tape.go): Resume can then restart the run's
// mitigated siblings part-way through. Only callers that resume in the
// same process gain from it; the Result is Run's either way.
func RunTaped(w trace.Workload, sys config.System, opt Options) (*Result, error) {
	return run(w, sys, opt, true)
}

func run(w trace.Workload, sys config.System, opt Options, taped bool) (*Result, error) {
	opt = opt.withDefaults(sys)
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	var tp *tape
	if taped {
		tp = newTape(w, sys, opt)
	}
	csys := compressed(sys, opt)
	var trk tracker.Tracker
	if tp != nil {
		trk = actLog{tp}
	} else {
		trk = memctrl.NewTracker(csys, csys.Geometry)
	}
	m, err := build(w, csys, opt, trk, nil)
	if err != nil {
		return nil, err
	}
	if tp != nil {
		m.tape = tp
		m.is.tape = tp
		m.ckptAt = tp.every
	}

	start := time.Now()
	var now Cycles
	if opt.Kernel == KernelCycle {
		now, err = m.runCycleStepped(opt.MaxCycles)
	} else {
		now, err = m.runEventDriven(opt.MaxCycles, nil)
	}
	if err != nil {
		m.recycle()
		return nil, fmt.Errorf("sim: %s did not converge within %d cycles", w.Name, opt.MaxCycles)
	}
	wall := time.Since(start).Seconds()
	res := m.result(w, csys, opt, now)
	res.WallSeconds = wall
	if wall > 0 {
		res.SimIPS = float64(res.Instructions) / wall
	}
	if tp != nil {
		tp.attach(res, m)
	}
	m.recycle()
	return res, nil
}

// compressed returns sys with the refresh window and swap latencies
// compressed as opt asks (see the package comment): the system every
// component of a run is built for.
func compressed(sys config.System, opt Options) config.System {
	sys.Timing.RefreshWindow = opt.WindowNS
	sys.SwapScale = opt.SwapLatencyScale
	return sys
}

// streamSeed is the seed of core i's access stream.
func streamSeed(opt Options, i int) uint64 {
	return opt.Seed ^ uint64(i*2654435761+17)
}

// build assembles the machine a run of w simulates under sys (already
// compressed) and normalized opt, with trk as the controller's tracker.
// Core i reads its stream from record starts[i] on (from the first
// record when starts is nil).
func build(w trace.Workload, sys config.System, opt Options, trk tracker.Tracker, starts []int64) (*machine, error) {
	rng := stats.NewRNG(opt.Seed)
	mem := dram.NewMemory(sys.Geometry, dram.FromConfig(sys.Timing, sys.Core.ClockGHz))
	llc := cache.New(sys.LLC, sys.Geometry.LinesPerRow())
	mit, err := core.New(mem, sys, rng.Split())
	if err != nil {
		mem.Recycle()
		llc.Recycle()
		return nil, err
	}

	var ctrl *memctrl.Controller
	pin := func(bankIdx int, row dram.RowID) {
		key := uint64(bankIdx)<<32 | uint64(uint32(row))
		if wbs, ok := llc.PinRow(key); ok {
			// Loading the row into the LLC costs one row transfer.
			bank := mem.Bank(bankIdx)
			slot := mit.Resolve(bankIdx, row)
			bank.Access(slot, false, bank.BusyUntil(), mem.Timing())
			for _, wb := range wbs {
				ctrl.Access(dram.DecodeAddr(sys.Geometry, wb), true, bank.BusyUntil())
			}
		}
	}
	ctrl = memctrl.New(mem, trk, mit, sys.Mitigation.TS(), pin)
	ctrl.SetOpenPage(opt.OpenPage)

	is := &issuer{sys: sys, geo: sys.Geometry, llc: llc, ctrl: ctrl, opt: opt}
	cores := make([]*cpu.Core, len(w.PerCore))
	streams := make([]trace.Stream, len(w.PerCore))
	for i, prof := range w.PerCore {
		// Streams read through the process-wide memoized record cache:
		// every run of the same (profile, geometry, seed) — each
		// mitigation config of a sweep, each bench iteration — consumes
		// the same records, so sampling them once is pure savings. The
		// differential oracle in batch_test.go forces this back to the
		// legacy per-record generator and proves bit-identical Results.
		var st trace.Stream
		if forcePerRecordStream {
			st = perRecordOnly{trace.NewGenerator(prof, sys.Geometry, streamSeed(opt, i))}
		} else {
			var at int64
			if starts != nil {
				at = starts[i]
			}
			st = trace.NewSharedGeneratorAt(prof, sys.Geometry, streamSeed(opt, i), at)
		}
		streams[i] = st
		cores[i] = cpu.NewCore(i, sys.Core, st, is, opt.Instructions)
	}

	return &machine{
		cores: cores, streams: streams, ctrl: ctrl, mem: mem, llc: llc, mit: mit, trk: trk, is: is,
		window: Cycles(opt.WindowNS * sys.Core.ClockGHz),
		ckptAt: never,
	}, nil
}

// result assembles the Result of a run that ended at cycle now, host
// instrumentation aside.
func (m *machine) result(w trace.Workload, sys config.System, opt Options, now Cycles) *Result {
	m.sampleWindow()
	res := &Result{
		Workload:     w.Name,
		Mitigation:   m.mit.Name(),
		Tracker:      sys.Mitigation.Tracker.String(),
		TRH:          sys.Mitigation.TRH,
		PerCoreIPC:   make([]float64, len(m.cores)),
		Cycles:       now,
		LLC:          m.llc.Stats(),
		Ctrl:         m.ctrl.Stats(),
		Mit:          m.mit.Stats(),
		MaxWindowACT: m.maxACT,
		Windows:      m.windows,
		Instructions: opt.Instructions * int64(len(m.cores)),
		Kernel:       opt.Kernel.String(),
	}
	for i, c := range m.cores {
		res.PerCoreIPC[i] = c.IPC()
		res.Regimes.Add(c.Regimes())
	}
	res.MeanIPC = stats.Mean(res.PerCoreIPC)
	return res
}

// recycle returns the pooled per-bank arrays and LLC metadata once every
// statistic has been copied out, so the next run skips their allocation
// and zeroing. The machine must not be used afterwards.
func (m *machine) recycle() {
	m.mem.Recycle()
	m.llc.Recycle()
}

// never is a deadline no run reaches.
const never = Cycles(1<<63 - 1)

// machine bundles the simulated components for the kernel loops.
type machine struct {
	cores   []*cpu.Core
	streams []trace.Stream // the cores' access streams
	ctrl    *memctrl.Controller
	mem     *dram.Memory
	llc     *cache.LLC
	mit     core.Mitigation
	trk     tracker.Tracker
	is      *issuer
	window  Cycles

	// maxACT and windows accumulate Result.MaxWindowACT and
	// Result.Windows, one sampleWindow per window.
	maxACT  uint32
	windows []BankWindow

	// tape records a baseline run for Resume, and ckptAt is the cycle
	// of its next checkpoint (never without a tape).
	tape   *tape
	ckptAt Cycles
}

// sampleWindow records every bank's activity in the current refresh
// window (its hottest slot, its activation total and its hottest Hydra
// group) before the window's counters are reset.
func (m *machine) sampleWindow() {
	for i := 0; i < m.mem.NumBanks(); i++ {
		b := m.mem.Bank(i)
		a, _ := b.MaxWindowACT()
		if a > m.maxACT {
			m.maxACT = a
		}
		m.windows = append(m.windows, BankWindow{
			MaxACT:      a,
			ACTs:        uint32(b.WindowACTs()),
			MaxGroupACT: b.MaxGroupACT(memctrl.HydraGroupRows),
		})
	}
}

// tick advances every component at cycle now (cores in order, then the
// controller, then refresh-window bookkeeping — the order the legacy
// loop established) and reports whether all cores reached their budget.
// windowEnd is updated in place.
func (m *machine) tick(now Cycles, windowEnd *Cycles) (allDone bool) {
	allDone = true
	for _, c := range m.cores {
		c.Tick(now)
		if !c.Done() {
			allDone = false
		}
	}
	m.ctrl.Tick(now)
	m.windowRoll(now, windowEnd)
	return allDone
}

// windowRoll performs the refresh-window boundary bookkeeping when now
// has reached windowEnd: sample the window's bank activity, reset Row
// Hammer accounting, drop LLC pins, and advance the boundary. Both
// kernels share it so the per-window sequence cannot diverge between
// them. It reports whether a boundary was crossed.
func (m *machine) windowRoll(now Cycles, windowEnd *Cycles) bool {
	if now < *windowEnd {
		return false
	}
	m.sampleWindow()
	if m.tape != nil {
		m.tape.marks = append(m.tape.marks, mark{cycle: now, acts: m.tape.acts.n})
	}
	m.ctrl.OnWindowEnd(now)
	m.llc.UnpinAll()
	*windowEnd += m.window
	return true
}

// errNoConverge signals that the run exceeded its cycle budget.
var errNoConverge = fmt.Errorf("sim: cycle budget exceeded")

// runCycleStepped is the legacy kernel: now advances one cycle at a
// time and every component is ticked at every cycle. Retained as the
// differential-testing oracle for runEventDriven.
func (m *machine) runCycleStepped(maxCycles Cycles) (Cycles, error) {
	windowEnd := m.window
	var now Cycles
	for {
		if m.tick(now, &windowEnd) {
			return now, nil
		}
		now++
		if now > maxCycles {
			return now, errNoConverge
		}
	}
}

// runEventDriven is the event-scheduled kernel: each component is
// ticked only at the cycles where it has externally visible work — a
// core's ROB-stall release or next memory issue, the controller's next
// refresh or paced mitigation operation, the refresh-window boundary —
// and now advances directly to the earliest pending deadline. The
// controller guarantees its Tick is a no-op before its advertised
// NextWork deadline; a core guarantees the skipped cycles are
// core-local and replays them in closed form when ticked (see
// cpu.Core.NextWork). Deadlines move only inside Tick/OnWindowEnd, so
// the kernel stays cycle-for-cycle identical to runCycleStepped (see
// TestEventKernelMatchesCycleStepped).
//
// A run restored from a baseline checkpoint (from != nil) continues
// from the checkpoint's kernel-iteration boundary; a taped run records
// checkpoints at those boundaries.
func (m *machine) runEventDriven(maxCycles Cycles, from *checkpoint) (Cycles, error) {
	windowEnd := m.window
	var now Cycles

	// Cached per-component deadlines; zero means due immediately. A
	// core's deadline is only moved by its own Tick; the controller's is
	// also refreshed after OnWindowEnd (which reschedules place-backs).
	coreNext := make([]Cycles, len(m.cores))
	coreDone := make([]bool, len(m.cores))
	nDone := 0
	var ctrlNext Cycles
	if from != nil {
		now, windowEnd, ctrlNext = from.now, from.windowEnd, from.ctrlNext
		copy(coreNext, from.coreNext)
		for i, c := range m.cores {
			if c.Done() {
				coreDone[i] = true
				nDone++
			}
		}
	}

	for {
		if now >= m.ckptAt {
			m.checkpoint(now, windowEnd, ctrlNext, coreNext)
		}
		for i, c := range m.cores {
			if coreNext[i] > now {
				continue
			}
			c.Tick(now)
			coreNext[i] = c.NextWork(now)
			if !coreDone[i] && c.Done() {
				coreDone[i] = true
				nDone++
			}
		}
		if ctrlNext <= now {
			m.ctrl.Tick(now)
			ctrlNext = m.ctrl.NextWork(now)
		}
		// Inline guard: windowEnd is almost never due, and keeping the
		// common case to one compare avoids a call per kernel iteration.
		if now >= windowEnd && m.windowRoll(now, &windowEnd) {
			// OnWindowEnd may have scheduled mitigation work (SRS
			// place-back pacing), so the cached deadline is stale.
			ctrlNext = m.ctrl.NextWork(now)
		}
		if nDone == len(m.cores) {
			return now, nil
		}
		next := windowEnd
		for _, t := range coreNext {
			if t < next {
				next = t
			}
		}
		if ctrlNext < next {
			next = ctrlNext
		}
		if next <= now {
			next = now + 1
		}
		now = next
		if now > maxCycles {
			return now, errNoConverge
		}
	}
}

// NormalizedPerf runs the workload under sys and under an unprotected
// baseline with identical options, returning mitigated IPC / baseline
// IPC (1.0 = no slowdown; the paper's y-axis). For a concurrent and/or
// cached variant, see simcache.NormalizedPerf.
func NormalizedPerf(w trace.Workload, sys config.System, opt Options) (float64, *Result, *Result, error) {
	base := sys
	base.Mitigation = config.Mitigation{}
	rb, err := Run(w, base, opt)
	if err != nil {
		return 0, nil, nil, err
	}
	rm, err := Run(w, sys, opt)
	if err != nil {
		return 0, nil, nil, err
	}
	return normalize(w, rb, rm)
}

func normalize(w trace.Workload, rb, rm *Result) (float64, *Result, *Result, error) {
	if rb.MeanIPC == 0 {
		return 0, rb, rm, fmt.Errorf("sim: baseline IPC is zero for %s", w.Name)
	}
	return rm.MeanIPC / rb.MeanIPC, rb, rm, nil
}
