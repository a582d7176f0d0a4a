package report

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// runKey identifies one matrix cell's simulation inside this process:
// simcache.RunKey's inputs without the binary hash, which cannot change
// while the process runs. A process resolves a workload name to one
// profile per core count (and the core count is in the System), while
// config.System and sim.Options are all scalars, so the key is
// comparable and two cells share it exactly when they share a RunKey.
type runKey struct {
	workload string
	sys      config.System
	opt      sim.Options
}

type runEntry struct {
	once sync.Once
	res  *sim.Result
	err  error
}

// runMemo shares simulation results across every matrix in the process:
// figures overlap heavily — every one normalizes against the same
// baselines, and Figs. 12/14/15 and the comparators repeat mitigated
// configs — so a full figure sweep simulates each distinct cell once,
// deduplicated exactly like PerfOptions.PlanEvaluation. Entries are
// deterministic, so memoizing cannot change any normalized number.
var runMemo sync.Map // runKey -> *runEntry

// CellStats counts, process-wide, how the memoized matrix cells were
// resolved. Cells served by the persistent cache count as none of
// Simulated, Derived and Resumed.
type CellStats struct {
	// Simulated cells ran sim.Run; Derived ones were relabelled from
	// their baseline (sim.Derive, or sim.Resume when the tracker never
	// acts); Resumed ones restarted from a baseline checkpoint
	// (sim.Resume).
	Simulated, Derived, Resumed int64
	// Instructions is how many budgeted instructions the simulated and
	// resumed cells ran through the kernel: a resumed cell counts only
	// those after its checkpoint.
	Instructions int64
}

var cellStats struct {
	simulated, derived, resumed, instructions atomic.Int64
}

// CellCounts returns how this process has resolved its matrix cells.
// The counts are cumulative; ResetRunMemo does not clear them.
func CellCounts() CellStats {
	return CellStats{
		Simulated:    cellStats.simulated.Load(),
		Derived:      cellStats.derived.Load(),
		Resumed:      cellStats.resumed.Load(),
		Instructions: cellStats.instructions.Load(),
	}
}

// resolver resolves every matrix cell of the process (runCell). Its
// memo keeps each baseline, with the tape its siblings resume from,
// for the whole process, like runMemo.
var resolver simcache.Resolver

// ResetRunMemo drops every process-wide memoized cell result. It exists
// for tests and benchmarks that need to model a fresh process — e.g. to
// prove the persistent cache alone can serve a matrix, or to make every
// timed iteration simulate — and has no place in normal use.
func ResetRunMemo() {
	runMemo = sync.Map{}
	resolver = simcache.Resolver{}
}

// runCell returns the cell's result, resolving it at most once per
// process even when many matrix jobs race for it. It resolves the way
// a sweep worker does (simcache.Resolver): a mitigated cell is derived
// from its workload's baseline, or resumed from one of its checkpoints,
// when sim.Resume can. The persistent cache, when enabled, additionally
// carries every result across process invocations.
func runCell(c MatrixCell, opt sim.Options, cache *simcache.Cache) (*sim.Result, error) {
	key := runKey{workload: c.Workload.Name, sys: c.System, opt: opt.Normalized(c.System)}
	e, _ := runMemo.LoadOrStore(key, &runEntry{})
	entry := e.(*runEntry)
	entry.once.Do(func() {
		if sim.Derivable(c.System.Mitigation) {
			// Resolve the baseline as a cell of its own first (every
			// matrix row needs it anyway), so that it is counted once,
			// whichever cell needs it first.
			base := c
			base.System.Mitigation = config.Mitigation{}
			runCell(base, opt, cache)
		}
		var how simcache.Resolution
		entry.res, how, entry.err = resolver.Resolve(simcache.BestEffort(cache), c.Workload, c.System, opt)
		switch {
		case entry.err != nil:
		case how == simcache.Simulated:
			cellStats.simulated.Add(1)
			cellStats.instructions.Add(entry.res.Instructions)
		case how == simcache.Derived:
			cellStats.derived.Add(1)
		case how == simcache.Resumed:
			cellStats.resumed.Add(1)
			cellStats.instructions.Add(entry.res.Resume.Instructions)
		}
	})
	return entry.res, entry.err
}

// runMatrix evaluates each workload under a baseline plus the given
// mitigation configurations, returning normalized performance rows in
// workload order. The matrix is expanded by PerfOptions.Plan (shared
// with the sweep coordinator, which distributes the same cells across
// worker processes) and executed here in-process. Every simulation is
// an independent deterministic job (its RNG is re-seeded from the
// options inside sim.Run), so the jobs are spread over a pool of
// opt.Workers goroutines and the rows are identical to a serial run
// regardless of scheduling. Baselines are claimed first, so a mitigated
// cell seldom waits on its baseline (see runCell).
func runMatrix(opt PerfOptions, configs map[string]config.Mitigation) ([]PerfRow, error) {
	opt = opt.withDefaults()
	plan := opt.Plan(configs)
	workloads := plan.Workloads

	// The persistent cache is optional: if the directory cannot be
	// created the matrix simply runs uncached.
	var cache *simcache.Cache
	if opt.CacheDir != "" {
		var err error
		if cache, err = simcache.Open(opt.CacheDir); err != nil {
			cache = nil
			if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "  cache disabled: %v\n", err)
			}
		}
	}

	stride := plan.stride()
	jobs := plan.Cells
	order := make([]int, 0, len(jobs))
	for _, baselines := range []bool{true, false} {
		for i, j := range jobs {
			if (j.Label == "") == baselines {
				order = append(order, i)
			}
		}
	}

	type cell struct {
		res *sim.Result
		err error
	}
	results := make([]cell, len(jobs))
	run := func(j MatrixCell) cell {
		res, err := runCell(j, plan.Sim, cache)
		if err != nil {
			label := j.Label
			if label == "" {
				label = "baseline"
			}
			err = fmt.Errorf("%s %s: %w", label, j.Workload.Name, err)
		}
		return cell{res, err}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		cursor  atomic.Int64
		failed  atomic.Bool
		progMu  sync.Mutex
		pending = make([]int, len(workloads))
		wg      sync.WaitGroup
	)
	cursor.Store(-1)
	for wi := range pending {
		pending[wi] = stride
	}
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(cursor.Add(1))
				if n >= len(order) || failed.Load() {
					return
				}
				i := order[n]
				results[i] = run(jobs[i])
				if results[i].err != nil {
					failed.Store(true)
					return
				}
				if opt.Progress == nil {
					continue
				}
				progMu.Lock()
				wi := jobs[i].WorkloadIndex
				pending[wi]--
				if pending[wi] == 0 {
					if rb := results[wi*stride].res; rb != nil {
						// Name the cells derived from this baseline or
						// resumed from one of its checkpoints instead
						// of simulated (see runCell).
						var derived, resumed []string
						for li, l := range plan.Labels {
							switch r := results[wi*stride+1+li].res; {
							case r == nil:
							case r.Derived():
								derived = append(derived, l)
							case r.Resume != nil && r.Resume.How == sim.ResumeRestart:
								resumed = append(resumed, fmt.Sprintf("%s at cycle %d", l, r.Resume.Cycle))
							}
						}
						note := ""
						if len(derived) > 0 {
							note = "; derived from it: " + strings.Join(derived, ", ")
						}
						if len(resumed) > 0 {
							note += "; resumed from it: " + strings.Join(resumed, ", ")
						}
						fmt.Fprintf(opt.Progress, "  %-14s done (baseline IPC %.3f%s)\n",
							workloads[wi].Name, rb.MeanIPC, note)
					}
				}
				progMu.Unlock()
			}
		}()
	}
	wg.Wait()

	if failed.Load() {
		for _, c := range results {
			if c.err != nil {
				return nil, c.err
			}
		}
	}

	flat := make([]*sim.Result, len(results))
	for i := range results {
		flat[i] = results[i].res
	}
	return plan.Rows(flat)
}
