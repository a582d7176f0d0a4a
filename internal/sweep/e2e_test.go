package sweep

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
)

// TestEvaluationSweepEndToEndTwoWorkerProcesses is the acceptance test
// of evaluation-wide planning: `rowswap-sweep plan -all` must produce
// ONE manifest covering every performance figure — with a deduplicated
// simulation-job count strictly below the sum of the per-figure plans
// — plus every security figure's Monte-Carlo trial batches. After a
// real rowswap-cached daemon, two real `work -server` worker processes
// and one `merge -server` (equal to a re-fold of the daemon's store),
// every performance figure's rows must be bit-identical to that
// figure's own single-process run and both Monte-Carlo figures' row
// sets must be complete. The CLI is a different build than this test
// binary, so their cache keys intentionally differ: bit-identity must
// come from determinism of the simulations and of the row assembly,
// not from shared cache entries. It also emits BENCH_sweep.json (jobs
// planned vs deduplicated, merge wall time) so the dedupe win is
// tracked across PRs.
func TestEvaluationSweepEndToEndTwoWorkerProcesses(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	opt := report.PerfOptions{
		Workloads: []string{"gcc", "gups"},
		Cores:     2,
		Sim:       sim.Options{Instructions: 150_000, WindowNS: 200_000},
	}

	// Coordinator: one plan for the whole evaluation.
	manifest := filepath.Join(dir, "manifest.json")
	planOut := runSweepStdout(t, sweepBin, dir, "plan", "-all",
		"-workloads", "gcc,gups", "-cores", "2",
		"-instructions", "150000", "-window", "200000", "-out", manifest)
	t.Logf("plan: %s", planOut)
	m, err := LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(m.Figures), len(report.PerfFigureIDs()); got != want {
		t.Fatalf("evaluation manifest covers %d figures, want %d", got, want)
	}

	// The acceptance criterion: strictly fewer simulation jobs than the
	// figures planned one by one (shared baselines and recurring
	// comparator configs deduplicated). The per-figure counts come from
	// in-process plans — job counts are build-independent even though
	// keys differ. Monte-Carlo batch jobs are counted apart: `plan -all`
	// also spans the security figures.
	perFigure := 0
	for _, id := range report.PerfFigureIDs() {
		fm, err := Plan(id, opt)
		if err != nil {
			t.Fatal(err)
		}
		perFigure += len(fm.Jobs)
	}
	simJobs, mcJobs := 0, 0
	for _, j := range m.Jobs {
		if j.Kind == JobKindMC {
			mcJobs++
		} else {
			simJobs++
		}
	}
	if simJobs >= perFigure {
		t.Fatalf("evaluation manifest has %d simulation jobs, per-figure manifests total %d: nothing deduplicated", simJobs, perFigure)
	}
	if m.Security == nil || mcJobs == 0 {
		t.Fatalf("plan -all carries no Monte-Carlo security jobs (security=%v, mc jobs=%d); one manifest must span the whole paper", m.Security, mcJobs)
	}

	store := filepath.Join(dir, "store")
	url := startCached(t, cachedBin, "-manifest", manifest, "-store-dir", store, "-addr", "127.0.0.1:0")
	var workers []*exec.Cmd
	for _, name := range []string{"w0", "w1"} {
		w := exec.Command(sweepBin, "work", "-server", url, "-name", name, "-manifest", manifest)
		w.Dir = dir
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	for i, w := range workers {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d failed: %v", i, err)
		}
	}

	results := filepath.Join(dir, "results.json")
	mergeStart := time.Now()
	render := runSweepStdout(t, sweepBin, dir, "merge", "-server", url, "-manifest", manifest, "-out", results)
	mergeSecs := time.Since(mergeStart).Seconds()
	requireRefold(t, manifest, store, results, render)
	got := loadResults(t, results)

	// Every figure bit-identical to its own single-process run, fresh
	// per figure (ResetRunMemo) exactly like a per-figure CLI
	// invocation would be.
	nontrivial := false
	for _, id := range report.PerfFigureIDs() {
		report.ResetRunMemo()
		var want []report.PerfRow
		var err error
		switch id {
		case "4":
			want, err = report.Fig4(io.Discard, opt)
		case "12":
			want, err = report.Fig12(io.Discard, opt)
		case "14":
			want, err = report.Fig14(io.Discard, opt)
		case "15":
			want, err = report.Fig15(io.Discard, opt)
		case "16":
			want, err = report.Fig16(io.Discard, opt)
		case "cmp":
			want, err = report.Comparators(io.Discard, opt, 1200)
		default:
			t.Fatalf("unhandled figure %s", id)
		}
		if err != nil {
			t.Fatalf("figure %s reference run: %v", id, err)
		}
		rows, ok := got.FigureRows(id)
		if !ok {
			t.Errorf("merged results carry no figure %s", id)
			continue
		}
		if !reflect.DeepEqual(want, rows) {
			t.Errorf("figure %s: evaluation-merged rows differ from its single-process run:\nwant: %+v\ngot:  %+v", id, want, rows)
		}
		for _, r := range want {
			for _, v := range r.Norm {
				if v != 1.0 {
					nontrivial = true
				}
			}
		}
	}
	if !nontrivial {
		t.Error("every normalized value across the evaluation is exactly 1.0; the comparison is vacuous")
	}

	// The security side of `plan -all` came through the same pipeline:
	// both Monte-Carlo figures' rows are present and complete (their
	// bit-identity to the single-process oracle is pinned by
	// TestDistributedSecurityMatchesOracle and the mc e2e).
	for fig, cells := range map[string]int{"6": 15, "10": 30} {
		rows, ok := got.SecurityRows(fig)
		if !ok || len(rows) != cells {
			t.Errorf("merged results carry %d Monte-Carlo rows for security figure %s, want %d", len(rows), fig, cells)
		}
	}

	writeSweepBench(t, len(report.PerfFigureIDs()), perFigure, simJobs, mcJobs, mergeSecs)
}

// writeSweepBench serializes the evaluation e2e's scale numbers into
// the "evaluation" section of BENCH_sweep.json: the dedupe win (jobs
// planned per-figure vs deduplicated) and the merge wall time are the
// sweep layer's trackable trajectory.
func writeSweepBench(t *testing.T, figures, perFigure, deduped, mcJobs int, mergeSecs float64) {
	t.Helper()
	writeBenchSection(t, "evaluation", map[string]any{
		"benchmark":              "EvaluationSweep",
		"figures":                figures,
		"jobs_per_figure_sum":    perFigure,
		"jobs_deduplicated":      deduped,
		"monte_carlo_batch_jobs": mcJobs,
		"dedupe_savings_frac":    1 - float64(deduped)/float64(perFigure),
		"merge_wall_seconds":     mergeSecs,
		"worker_processes":       2,
		"workloads":              2,
		"instructions_per_core":  150_000,
	})
}

// writeBenchSection read-modify-writes one named section of
// BENCH_sweep.json at the repository root, mirroring
// BENCH_kernel.json: each e2e owns a section ("evaluation", the dedupe
// win; "work_stealing", the scheduling row; "service", "monte_carlo",
// "streaming") so the file tracks every trajectory whichever test ran
// last. The write only happens in CI or under BENCH_SWEEP=1 so a plain
// local `go test ./...` never dirties the working tree with
// machine-dependent timings (regenerate every section with
// `BENCH_SWEEP=1 go test -run 'EndToEnd|TestServerSweep' ./internal/sweep`).
func writeBenchSection(t *testing.T, section string, payload map[string]any) {
	t.Helper()
	if os.Getenv("BENCH_SWEEP") == "" && os.Getenv("CI") == "" {
		return
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(repoRoot, "BENCH_sweep.json")
	sections := map[string]map[string]any{}
	if data, err := os.ReadFile(path); err == nil {
		// A pre-section flat file (or garbage) simply starts fresh.
		_ = json.Unmarshal(data, &sections)
		for k, v := range sections {
			if v == nil {
				delete(sections, k)
			}
		}
	}
	sections[section] = payload
	data, err := json.MarshalIndent(sections, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Logf("could not write BENCH_sweep.json: %v", err)
	}
}
