package sweep

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

// TestServerSweepMonteCarloMixedManifest is the acceptance test of the
// generic-job pipeline at process level: one manifest carrying BOTH
// performance simulation jobs (Fig. 14) and Monte-Carlo security trial
// batches (Fig. 6, plus the closed-form Table IV), served by a real
// rowswap-cached daemon to two real worker processes over the
// work-stealing queue — the first SIGKILLed while it provably holds a
// Monte-Carlo batch lease. The survivor inherits the orphaned batch
// after lease expiry, and the `merge -server` snapshot (equal to a
// re-fold of the daemon's store) must reproduce:
//
//   - Fig. 14's PerfRows bit-identical to a single-process report run,
//   - Fig. 6's fifteen Monte-Carlo rows bit-identical to a seeded
//     single-process oracle run (every float of every row), regardless
//     of which worker computed which batch or in what order,
//
// and the text render must include the Monte-Carlo column. It also
// records the BENCH monte_carlo section: total trials, distributed
// trial throughput, and distributed vs in-process oracle wall time.
func TestServerSweepMonteCarloMixedManifest(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 200_000
	workloads := []string{"gcc", "gups"}
	// 2 workloads × (baseline + 2 configs) sim jobs, plus Fig. 6's
	// 15 cells × (1000 trials / 250 per batch) Monte-Carlo batch jobs.
	const simJobs, mcJobs = 6, 60
	const totalJobs = simJobs + mcJobs

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(sweepBin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("rowswap-sweep %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	manifest := filepath.Join(dir, "manifest.json")
	planOut := run("plan", "-fig", "14,6,t4",
		"-workloads", strings.Join(workloads, ","), "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-trials", "1", "-mc-batch", "250", "-out", manifest)
	if !strings.Contains(planOut, fmt.Sprintf("%d Monte-Carlo batch jobs", mcJobs)) {
		t.Fatalf("plan summary does not announce %d Monte-Carlo batch jobs:\n%s", mcJobs, planOut)
	}

	// A short lease so the killed worker's orphaned batch is
	// re-claimable within the test's patience.
	url := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store"),
		"-addr", "127.0.0.1:0", "-lease", "1s")

	// The doomed worker runs alone first, on a single goroutine, so any
	// lease the queue reports is provably its — and once the sim jobs
	// are done (they sit first in the manifest), provably a Monte-Carlo
	// batch: the kill lands mid-batch, not mid-simulation.
	distStart := time.Now()
	killWorkerUntilRequeued(t, sweepBin, dir, url, manifest, simJobs, totalJobs)

	// The second worker drains everything else, inheriting the requeued
	// batch.
	survivor := exec.Command(sweepBin, "work", "-server", url, "-name", "survivor", "-workers", "2")
	survivor.Dir = dir
	if err := survivor.Run(); err != nil {
		t.Fatalf("surviving worker failed: %v", err)
	}
	distSecs := time.Since(distStart).Seconds()

	st := queueStatus(t, url)
	if done := st["done"].(float64); done != totalJobs {
		t.Errorf("queue reports %v jobs done after rescue, want %d", done, totalJobs)
	}
	if requeues := st["requeues"].(float64); requeues < 1 {
		t.Errorf("no lease was requeued (requeues = %v); the kill exercised nothing", requeues)
	}

	results := filepath.Join(dir, "results.json")
	mergeOut := mergeAgainstRefold(t, sweepBin, dir, url, manifest, filepath.Join(dir, "store"), results)
	if !strings.Contains(mergeOut, "MC@4800") {
		t.Errorf("merge render lacks the Fig. 6 Monte-Carlo column:\n%s", mergeOut)
	}

	// Oracle #1 (performance): the in-process single-run Fig. 14 rows.
	gotPerf := loadFigureRows(t, results, "14")
	wantPerf := singleProcessFig14(t, workloads, instructions)
	if !reflect.DeepEqual(wantPerf, gotPerf) {
		t.Errorf("post-kill merged Fig. 14 rows differ from single-process rows:\nwant: %+v\ngot:  %+v", wantPerf, gotPerf)
	}

	// Oracle #2 (security): every cell recomputed in this process, in
	// order, from the manifest's recorded seed — nothing shared with the
	// distributed run but the seeds. Which worker drew which batch is
	// pure placement; it must not reach any drawn number.
	m, err := LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	singleStart := time.Now()
	oracle := report.RunSecurityCells(m.Security.Cells, m.Security.Seed, m.Security.Trials, m.Security.Batch)
	singleSecs := time.Since(singleStart).Seconds()

	// Fig. 6 row i is security cell fig6[i] of the deduplicated set.
	var fig6 []int
	for _, f := range m.Security.Figures {
		if f.Fig == "6" {
			fig6 = f.Cells
		}
	}
	gotSec := loadSecurityRows(t, results, "6")
	if len(gotSec) != 15 || len(fig6) != 15 {
		t.Fatalf("merged results carry %d Fig. 6 rows and the manifest %d cells, want 15", len(gotSec), len(fig6))
	}
	trialsTotal := 0
	sawTail, sawDirect := false, false
	for i := range gotSec {
		want := oracle[fig6[i]]
		if mcRowBits(gotSec[i]) != mcRowBits(MonteCarloRow{Result: want}) || gotSec[i].Result.Tail != want.Tail {
			t.Errorf("Fig. 6 row %d (%s): distributed differs from single-process oracle:\nwant: %+v\ngot:  %+v",
				i, gotSec[i].Label, want, gotSec[i].Result)
		}
		trialsTotal += gotSec[i].Result.Iterations
		if gotSec[i].Result.Tail {
			sawTail = true
		} else if !gotSec[i].Result.Skipped {
			sawDirect = true
		}
	}
	if !sawTail || !sawDirect {
		t.Errorf("Fig. 6 rows cover tail=%v direct=%v; both regimes must appear", sawTail, sawDirect)
	}

	writeBenchSection(t, "monte_carlo", map[string]any{
		"benchmark":                   "ServerSweepMonteCarloMixedManifest",
		"jobs":                        totalJobs,
		"monte_carlo_batch_jobs":      mcJobs,
		"trials_total":                trialsTotal,
		"trials_per_second":           float64(trialsTotal) / distSecs,
		"distributed_wall_seconds":    distSecs,
		"single_process_wall_seconds": singleSecs,
		"requeues":                    st["requeues"],
	})
}

// loadSecurityRows reads a merge-stage results file and extracts one
// security figure's Monte-Carlo rows.
func loadSecurityRows(t *testing.T, path, fig string) []MonteCarloRow {
	t.Helper()
	rows, ok := loadResults(t, path).SecurityRows(fig)
	if !ok {
		t.Fatalf("merged results carry no security figure %s", fig)
	}
	return rows
}
