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

// simulatedCells and derivedCells count, process-wide, the memoized
// cells that ran sim.Run and those sim.Derive built from their
// baseline; cells served by the persistent cache count as neither.
var simulatedCells, derivedCells atomic.Int64

// CellCounts returns how many matrix cells this process has simulated
// and how many it derived from their baseline (see sim.Derive). The
// counts are cumulative; ResetRunMemo does not clear them.
func CellCounts() (simulated, derived int64) {
	return simulatedCells.Load(), derivedCells.Load()
}

// ResetRunMemo drops every process-wide memoized cell result. It exists
// for tests and benchmarks that need to model a fresh process — e.g. to
// prove the persistent cache alone can serve a matrix, or to make every
// timed iteration simulate — and has no place in normal use.
func ResetRunMemo() {
	runMemo = sync.Map{}
}

// runCell returns the cell's result, simulating it at most once per
// process even when many matrix jobs race for it. A mitigated cell
// first resolves its workload's baseline (every matrix row needs it
// anyway) and is derived from it when sim.Derive can prove the two runs
// identical. The persistent cache, when enabled, additionally carries
// results across process invocations.
func runCell(c MatrixCell, opt sim.Options, cache *simcache.Cache) (*sim.Result, error) {
	key := runKey{workload: c.Workload.Name, sys: c.System, opt: opt.Normalized(c.System)}
	e, _ := runMemo.LoadOrStore(key, &runEntry{})
	entry := e.(*runEntry)
	entry.once.Do(func() {
		if sim.Derivable(c.System.Mitigation) {
			base := c
			base.System.Mitigation = config.Mitigation{}
			if rb, err := runCell(base, opt, cache); err == nil {
				if d, ok := sim.Derive(rb, c.System, opt); ok {
					entry.res = d
					derivedCells.Add(1)
					return
				}
			}
		}
		var hit bool
		entry.res, hit, entry.err = simcache.RunCached(cache, c.Workload, c.System, opt)
		if entry.err == nil && !hit {
			simulatedCells.Add(1)
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
						// Name the cells derived from this baseline
						// instead of simulated (see runCell).
						var derived []string
						for li, l := range plan.Labels {
							if r := results[wi*stride+1+li].res; r != nil && r.Derived() {
								derived = append(derived, l)
							}
						}
						note := ""
						if len(derived) > 0 {
							note = "; derived from it: " + strings.Join(derived, ", ")
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
