package report

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

func matrixOpts(workers int) PerfOptions {
	return PerfOptions{
		Workloads: []string{"gcc", "povray", "mcf"},
		Cores:     2,
		Workers:   workers,
		Sim:       sim.Options{Instructions: 100_000, WindowNS: 200_000},
	}
}

var matrixConfigs = map[string]config.Mitigation{
	"rrs":       config.DefaultRRS(1200),
	"scale-srs": config.DefaultScaleSRS(1200),
}

// TestSerialAndParallelMatrixIdentical is the determinism contract of
// the parallel experiment engine: the rows must be bit-identical for any
// worker count, including the single-worker serial schedule.
func TestSerialAndParallelMatrixIdentical(t *testing.T) {
	ResetRunMemo()
	serial, err := runMatrix(matrixOpts(1), matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	ResetRunMemo()
	parallel, err := runMatrix(matrixOpts(8), matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("serial and parallel rows diverged:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(parallel) != 3 || parallel[0].Workload != "gcc" || parallel[2].Workload != "mcf" {
		t.Errorf("row order not deterministic: %+v", parallel)
	}
}

// TestRunMemoMatchesEvaluationPlan is the dedupe contract of the
// process-wide memo: running every performance figure in one process
// simulates exactly the evaluation plan's deduplicated cells (two cells
// share a memo entry exactly when they share a RunKey), and memoizing
// changes no number — every figure's rows equal those of a fresh-memo
// run of that figure alone.
func TestRunMemoMatchesEvaluationPlan(t *testing.T) {
	opts := matrixOpts(0)
	opts.Workloads = []string{"gcc", "mcf"}
	opts.Sim.Instructions = 20_000

	var figs []PerfFigure
	for _, id := range PerfFigureIDs() {
		f, ok := PerfFigureByID(id)
		if !ok {
			t.Fatalf("unknown figure %s", id)
		}
		figs = append(figs, f)
	}

	ResetRunMemo()
	shared := make([][]PerfRow, len(figs))
	for i, f := range figs {
		rows, err := runMatrix(opts, f.Configs)
		if err != nil {
			t.Fatalf("figure %s: %v", f.ID, err)
		}
		shared[i] = rows
	}
	plan := opts.PlanEvaluation(figs)
	entries := 0
	runMemo.Range(func(any, any) bool { entries++; return true })
	if want := len(plan.Cells); entries != want {
		t.Errorf("memo holds %d entries after all figures, want the plan's %d deduplicated cells (of %d figure cells)",
			entries, want, plan.TotalFigureCells())
	}

	for i, f := range figs {
		ResetRunMemo()
		alone, err := runMatrix(opts, f.Configs)
		if err != nil {
			t.Fatalf("figure %s alone: %v", f.ID, err)
		}
		if !reflect.DeepEqual(shared[i], alone) {
			t.Errorf("figure %s: memo-shared rows differ from a fresh-memo run:\nshared: %+v\nalone:  %+v",
				f.ID, shared[i], alone)
		}
	}
}

// TestMatrixErrorPropagates checks that an invalid config surfaces as an
// error (and not a deadlock or partial rows) under the worker pool. The
// memo keeps the failure: the figure fails the same way on every call —
// a memo hit must never turn into a nil result — and the failure does
// not poison the valid cells a later figure in the same process needs.
func TestMatrixErrorPropagates(t *testing.T) {
	bad := map[string]config.Mitigation{
		"bad": {Kind: config.MitigationRRS}, // TRH=0 fails validation
	}
	ResetRunMemo()
	var first string
	for call := 1; call <= 3; call++ {
		rows, err := runMatrix(matrixOpts(4), bad)
		if err == nil {
			t.Fatalf("call %d: invalid config did not error", call)
		}
		if rows != nil {
			t.Errorf("call %d: error came with rows %+v", call, rows)
		}
		// Every call must report the cell's own failure, not a
		// downstream symptom such as a missing result.
		if call == 1 {
			first = err.Error()
			if !strings.HasPrefix(first, "bad gcc: ") {
				t.Errorf("call 1: error %q does not name the failed cell", first)
			}
		} else if err.Error() != first {
			t.Errorf("call %d: error %q, want the first call's %q", call, err, first)
		}
	}
	rows, err := runMatrix(matrixOpts(4), matrixConfigs)
	if err != nil {
		t.Fatalf("valid figure after a failed one: %v", err)
	}
	if len(rows) != 3 || len(rows[0].Norm) != len(matrixConfigs) {
		t.Errorf("valid figure after a failed one: rows %+v", rows)
	}
}

// TestMatrixWithPersistentCacheIdentical proves the persistent cache is
// invisible to the matrix's numbers: uncached rows, cold-cache rows, and
// warm-cache rows must be bit-identical, and the warm pass must actually
// be served from disk (the process-wide memo is reset between passes, so
// only simcache can avoid re-simulation).
func TestMatrixWithPersistentCacheIdentical(t *testing.T) {
	opts := matrixOpts(2)
	opts.Workloads = []string{"gcc", "mcf"}
	opts.Sim.Instructions = 40_000

	ResetRunMemo()
	plain, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}

	opts.CacheDir = t.TempDir()
	ResetRunMemo()
	cold, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	ResetRunMemo()
	warm, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cold) {
		t.Errorf("cold-cache rows differ from uncached rows:\n%v\nvs\n%v", cold, plain)
	}
	if !reflect.DeepEqual(plain, warm) {
		t.Errorf("warm-cache rows differ from uncached rows:\n%v\nvs\n%v", warm, plain)
	}
}

// TestMatrixCacheDirFailureFallsBack ensures an unusable cache directory
// degrades to uncached simulation instead of failing the figure.
func TestMatrixCacheDirFailureFallsBack(t *testing.T) {
	opts := matrixOpts(1)
	opts.Workloads = []string{"gcc"}
	opts.Sim.Instructions = 30_000
	opts.CacheDir = string([]byte{0}) // invalid path on every platform

	ResetRunMemo()
	rows, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
}

// TestMatrixDerivesQuietCells checks that runMatrix derives the cells
// whose baseline proves no crossing (sim.Derive), says so in its
// progress output, counts them apart from simulated cells, and still
// produces the rows a plain sim.Run of every cell gives.
func TestMatrixDerivesQuietCells(t *testing.T) {
	opts := matrixOpts(2)
	opts.Workloads = []string{"povray", "gcc"}
	opts.Sim.Instructions = 40_000
	var progress strings.Builder
	opts.Progress = &progress

	ResetRunMemo()
	sim0, der0 := CellCounts()
	rows, err := runMatrix(opts, matrixConfigs)
	if err != nil {
		t.Fatal(err)
	}
	sim1, der1 := CellCounts()
	if der1 == der0 {
		t.Fatalf("no cell derived; progress:\n%s", progress.String())
	}
	if got := (sim1 - sim0) + (der1 - der0); got != 6 {
		t.Errorf("%d simulated + %d derived cells, want the matrix's 6", sim1-sim0, der1-der0)
	}
	if !strings.Contains(progress.String(), "derived from it: ") {
		t.Errorf("progress does not name the derived cells:\n%s", progress.String())
	}

	plan := opts.Plan(matrixConfigs)
	for wi, w := range plan.Workloads {
		rb, err := sim.Run(w, plan.Cells[wi*3].System, plan.Sim)
		if err != nil {
			t.Fatal(err)
		}
		for li, l := range plan.Labels {
			rm, err := sim.Run(w, plan.Cells[wi*3+1+li].System, plan.Sim)
			if err != nil {
				t.Fatal(err)
			}
			if want := rm.MeanIPC / rb.MeanIPC; rows[wi].Norm[l] != want {
				t.Errorf("%s %s: normalized perf %v, simulated %v", w.Name, l, rows[wi].Norm[l], want)
			}
		}
	}
}
