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

// resolver resolves every matrix cell of the process (runCell) and
// memoizes each one, the baselines' tapes included. Figures overlap
// heavily — every one normalizes against the same baselines, and Figs.
// 12/14/15 and the comparators repeat mitigated configs — so a full
// figure sweep resolves each distinct cell once, deduplicated exactly
// like PerfOptions.PlanEvaluation. Results are deterministic, so
// memoizing cannot change any normalized number. caches holds the
// persistent cache opened for each CacheDir, so that a process scans a
// directory once and appends to one segment of it.
var (
	resolver simcache.Resolver
	retired  simcache.Counts // the counts of the resolvers ResetRunMemo dropped
	caches   sync.Map        // CacheDir -> *simcache.Cache
)

// CellCounts returns how this process has resolved its matrix cells.
// Cells served by the persistent cache count as none of Simulated,
// Derived and Resumed. The counts are cumulative; ResetRunMemo does
// not clear them.
func CellCounts() simcache.Counts {
	c := resolver.Counts()
	return simcache.Counts{
		Simulated:    retired.Simulated + c.Simulated,
		Derived:      retired.Derived + c.Derived,
		Resumed:      retired.Resumed + c.Resumed,
		Instructions: retired.Instructions + c.Instructions,
	}
}

// ResetRunMemo drops every process-wide memoized cell result and opened
// cache. It exists for tests and benchmarks that need to model a fresh
// process — e.g. to prove the persistent cache alone can serve a
// matrix, or to make every timed iteration simulate — and has no place
// in normal use.
func ResetRunMemo() {
	retired = CellCounts()
	resolver = simcache.Resolver{}
	caches = sync.Map{}
}

// openCache returns the persistent cache rooted at dir, opening it on
// the process's first use of dir. Of two first uses racing, one's
// Cache is kept and the other's, which has written nothing, dropped.
func openCache(dir string) (*simcache.Cache, error) {
	if c, ok := caches.Load(dir); ok {
		return c.(*simcache.Cache), nil
	}
	c, err := simcache.Open(dir)
	if err != nil {
		return nil, err
	}
	v, _ := caches.LoadOrStore(dir, c)
	return v.(*simcache.Cache), nil
}

// runCell returns the cell's result, resolving it at most once per
// process even when many matrix jobs race for it. It resolves the way
// a sweep worker does (simcache.Resolver): a mitigated cell is derived
// from its workload's baseline, or resumed from one of its checkpoints,
// when sim.Resume can. The persistent cache, when enabled, additionally
// carries every result across process invocations.
func runCell(c MatrixCell, opt sim.Options, cache *simcache.Cache) (*sim.Result, error) {
	res, _, err := resolver.Resolve(simcache.BestEffort(cache), c.Workload, c.System, opt)
	if err != nil {
		label := c.Label
		if label == "" {
			label = "baseline"
		}
		err = fmt.Errorf("%s %s: %w", label, c.Workload.Name, err)
	}
	return res, err
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
		if cache, err = openCache(opt.CacheDir); err != nil {
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

	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))

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
				results[i], errs[i] = runCell(jobs[i], plan.Sim, cache)
				if errs[i] != nil {
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
					if rb := results[wi*stride]; rb != nil {
						// Name the cells derived from this baseline or
						// resumed from one of its checkpoints instead
						// of simulated (see runCell).
						var derived, resumed []string
						for li, l := range plan.Labels {
							switch r := results[wi*stride+1+li]; {
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
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return plan.Rows(results)
}
