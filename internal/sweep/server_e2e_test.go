package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/objstore"
	"repro/internal/report"
	"repro/internal/sim"
)

// These are the acceptance tests of the networked sweep: a real
// rowswap-cached daemon on a loopback port, real rowswap-sweep worker
// processes in work-stealing mode, and a server-transport merge. The
// only things the processes share are the daemon's URL (and, for the
// processes that interpret jobs, the manifest) — no cache directory
// ever changes hands, which is exactly the claim the tests verify.

// buildCLI builds one of this repository's commands into dir and
// returns the binary path.
func buildCLI(t *testing.T, dir, name string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available to build the CLI")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, name)
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/"+name)
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

var servingURL = regexp.MustCompile(`http://[0-9.]+:[0-9]+`)

// startCached starts a real rowswap-cached daemon and returns its base
// URL (parsed from the serving line, so -addr can use port 0). The
// daemon is killed when the test ends.
func startCached(t *testing.T, bin string, args ...string) string {
	url, _ := startCachedCmd(t, bin, args...)
	return url
}

// startCachedCmd is startCached exposing the daemon process, for tests
// that kill the daemon mid-sweep themselves.
func startCachedCmd(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("rowswap-cached printed no serving line: %v", sc.Err())
	}
	url := servingURL.FindString(sc.Text())
	if url == "" {
		t.Fatalf("no URL in serving line %q", sc.Text())
	}
	// Drain any further output so the daemon never blocks on a full pipe.
	go io.Copy(io.Discard, stdout)
	return url, cmd
}

// queueStatus polls the daemon's default-tenant status endpoint.
func queueStatus(t *testing.T, url string) map[string]any {
	t.Helper()
	return queueStatusPath(t, url, "/v1/status")
}

// queueStatusPath polls any status route (namespaced tenants use
// /m/<fingerprint>/status).
func queueStatusPath(t *testing.T, url, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s: HTTP %d: %s", path, resp.StatusCode, body)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	return st
}

// killWorkerUntilRequeued proves lease recovery against a real worker:
// it starts a single-goroutine `work` process, SIGKILLs it the
// moment the queue reports a lease once at least minDone jobs are done
// (with the worker running alone, that lease is provably its own), and
// waits until the orphaned lease resolves. A kill that lands after the
// worker already stored its result is reconciled by the lease sweep
// instead of requeued, and exercises nothing; the helper then kills a
// fresh worker on a later lease, which costs only the job or two that
// worker finishes before its kill. It returns once a kill has been
// requeued, and fails the test if the queue drains (done reaches
// total) first.
func killWorkerUntilRequeued(t *testing.T, sweepBin, dir, url, manifest string, minDone, total float64) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		before := queueStatus(t, url)["requeues"].(float64)
		doomed := exec.Command(sweepBin, "work", "-server", url, "-name", "doomed", "-workers", "1", "-manifest", manifest)
		doomed.Dir = dir
		if err := doomed.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			doomed.Process.Kill()
			doomed.Wait()
		})
		deadline := time.Now().Add(60 * time.Second)
		for {
			st := queueStatus(t, url)
			if st["done"].(float64) >= minDone && st["leased"].(float64) >= 1 {
				break
			}
			if st["done"].(float64) >= total {
				t.Fatal("queue drained before the worker could be killed; raise -instructions")
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker never held a lease: %v", st)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := doomed.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		doomed.Wait()

		// Every status poll sweeps the leases: the orphan is either
		// reconciled at once (its result is stored) or requeued when
		// its lease expires.
		var st map[string]any
		for deadline = time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			st = queueStatus(t, url)
			if st["leased"].(float64) == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("killed worker's lease never resolved: %v", st)
			}
		}
		if st["requeues"].(float64) > before {
			return
		}
		t.Logf("attempt %d: the killed worker's job was already stored or completed (store_reconciled = %v); killing a new worker on a later lease",
			attempt, st["store_reconciled"])
	}
}

// runSweepStdout runs one rowswap-sweep command and returns its stdout
// alone (stderr carries progress and the results-file note).
func runSweepStdout(t *testing.T, bin, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("rowswap-sweep %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// mergeAgainstRefold runs `merge -server`, which renders from the
// daemon's folded snapshot, and the independent oracle: `merge -dirs`
// re-folding every entry of the daemon's own store directory. The two
// results files must decode DeepEqual and the two renders must be
// byte-identical. It writes the server merge's results to results and
// returns its render.
func mergeAgainstRefold(t *testing.T, bin, dir, url, manifest, store, results string) string {
	t.Helper()
	got := runSweepStdout(t, bin, dir, "merge", "-server", url, "-manifest", manifest, "-out", results)
	oracle := results + ".refold.json"
	want := runSweepStdout(t, bin, dir, "merge", "-dirs", store, "-manifest", manifest,
		"-merged-dir", results+".refold-cache", "-out", oracle)
	if got != want {
		t.Errorf("merge -server render differs from the re-fold of the daemon's store:\nserver:\n%s\nrefold:\n%s", got, want)
	}
	if a, b := loadResults(t, results), loadResults(t, oracle); !reflect.DeepEqual(a, b) {
		t.Errorf("merge -server results differ from the re-fold of the daemon's store:\nserver: %+v\nrefold: %+v", a, b)
	}
	return got
}

// loadResults reads a merge-stage results file.
func loadResults(t *testing.T, path string) *Results {
	t.Helper()
	res, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// singleProcessFig14 computes the reference rows the merged results
// must match bit-identically.
func singleProcessFig14(t *testing.T, workloads []string, instructions int64) []report.PerfRow {
	t.Helper()
	report.ResetRunMemo()
	want, err := report.Fig14(io.Discard, report.PerfOptions{
		Workloads: workloads,
		Cores:     2,
		Sim:       sim.Options{Instructions: instructions, WindowNS: 200_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireNonTrivial(t, want)
	return want
}

// loadFigureRows reads a merge-stage results file and extracts one
// figure's rows.
func loadFigureRows(t *testing.T, path, fig string) []report.PerfRow {
	t.Helper()
	rows, ok := loadResults(t, path).FigureRows(fig)
	if !ok {
		t.Fatalf("merged results carry no figure %s", fig)
	}
	return rows
}

// TestServerSweepWorkStealingTwoWorkerProcesses is the acceptance test
// of the networked transport: plan, a real rowswap-cached daemon, two
// real worker processes in `work -server` (work-stealing) mode that
// never touch a cache directory, and a `merge -server` of the daemon's
// folded snapshot (equal to a re-fold of its store) must reproduce
// figure 14's PerfRows bit-identically to a single-process run — with
// zero filesystem interchange between any two processes. It
// also times the same matrix through the PR 4 pre-sharded LPT path and
// records both in BENCH_sweep.json's work_stealing section (jobs
// claimed per worker, wall seconds per mode).
func TestServerSweepWorkStealingTwoWorkerProcesses(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 200_000
	workloads := []string{"gcc", "mcf", "gups"}

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
	run("plan", "-fig", "14",
		"-workloads", "gcc,mcf,gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "2", "-out", manifest)

	url := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store"), "-addr", "127.0.0.1:0")

	// Two worker processes, claiming concurrently like two machines.
	// w1 gets the manifest from the daemon — a worker machine needs
	// only the binary and the URL.
	stealStart := time.Now()
	w0 := exec.Command(sweepBin, "work", "-server", url, "-name", "w0", "-manifest", manifest, "-workers", "2")
	w1 := exec.Command(sweepBin, "work", "-server", url, "-name", "w1", "-workers", "2")
	for i, w := range []*exec.Cmd{w0, w1} {
		w.Dir = dir
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker %d: %v", i, err)
		}
	}
	for i, w := range []*exec.Cmd{w0, w1} {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d failed: %v", i, err)
		}
	}
	stealSecs := time.Since(stealStart).Seconds()

	// The queue drained and every job was claimed by exactly one of
	// the two named workers.
	st := queueStatus(t, url)
	claimed := st["claimed"].(map[string]any)
	if len(claimed) != 2 {
		t.Errorf("claims from %d workers, want 2: %v", len(claimed), claimed)
	}
	if done := st["done"].(float64); done != 9 { // 3 workloads × (baseline + 2 configs)
		t.Errorf("queue reports %v jobs done, want 9", done)
	}

	// No worker cache directory exists anywhere: the store dir and the
	// manifest are the only artifacts besides the binaries.
	for _, name := range []string{"w0", "w1"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("worker %s left a local cache directory", name)
		}
	}

	results := filepath.Join(dir, "results.json")
	mergeAgainstRefold(t, sweepBin, dir, url, manifest, filepath.Join(dir, "store"), results)
	gotRows := loadFigureRows(t, results, "14")

	want := singleProcessFig14(t, workloads, instructions)
	if !reflect.DeepEqual(want, gotRows) {
		t.Errorf("work-stealing rows differ from single-process rows:\nwant: %+v\ngot:  %+v", want, gotRows)
	}

	// The local-cache flags belong to the -dirs transport alone.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-server", url, "-merged-dir", filepath.Join(dir, "merged")}, "apply only to -dirs"},
		{[]string{"-server", url, "-no-pack"}, "apply only to -dirs"},
		{[]string{"-dirs", filepath.Join(dir, "store")}, "-dirs needs -merged-dir"},
	} {
		cmd := exec.Command(sweepBin, append([]string{"merge", "-manifest", manifest}, tc.args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err == nil || !strings.Contains(string(out), tc.want) {
			t.Errorf("merge %v: err %v, output %q; want a failure saying %q", tc.args, err, out, tc.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "merged")); !os.IsNotExist(err) {
		t.Errorf("a rejected merge -server created its -merged-dir (stat: %v)", err)
	}

	// The comparison row: the same matrix through pre-sharded LPT with
	// filesystem interchange (the PR 4 path), for the BENCH file.
	lptManifest := filepath.Join(dir, "lpt-manifest.json")
	run("plan", "-fig", "14",
		"-workloads", "gcc,mcf,gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "2", "-strategy", "cost", "-cost-dir", "", "-out", lptManifest)
	lptStart := time.Now()
	runWorkers(t, dir, sweepBin, lptManifest, []string{filepath.Join(dir, "lpt-w0"), filepath.Join(dir, "lpt-w1")})
	lptSecs := time.Since(lptStart).Seconds()

	perWorker := map[string]any{}
	for w, n := range claimed {
		perWorker[w] = n
	}
	writeBenchSection(t, "work_stealing", map[string]any{
		"benchmark":                   "ServerSweepWorkStealing",
		"jobs":                        9,
		"worker_processes":            2,
		"jobs_claimed_per_worker":     perWorker,
		"work_stealing_wall_seconds":  stealSecs,
		"lpt_presharded_wall_seconds": lptSecs,
		"instructions_per_core":       instructions,
		"requeues":                    st["requeues"],
	})
}

// TestServerSweepRunShardServer covers the plan-time shard transport
// over HTTP: a daemon started with no manifest, one `run-shard -server`
// process per shard, then `merge -server`. Each shard registers the
// manifest and completes its jobs without a lease, so the daemon's
// snapshot is complete when the shards exit; it must equal the re-fold
// of the daemon's store and reproduce figure 14's single-process rows.
func TestServerSweepRunShardServer(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 200_000
	workloads := []string{"gcc", "mcf"}
	manifest := filepath.Join(dir, "manifest.json")
	runSweepStdout(t, sweepBin, dir, "plan", "-fig", "14",
		"-workloads", strings.Join(workloads, ","), "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "2", "-out", manifest)
	store := filepath.Join(dir, "store")
	url := startCached(t, cachedBin, "-store-dir", store, "-addr", "127.0.0.1:0")

	shards := make([]*exec.Cmd, 2)
	for i := range shards {
		shards[i] = exec.Command(sweepBin, "run-shard", "-manifest", manifest,
			"-shard", fmt.Sprint(i), "-server", url, "-workers", "1")
		shards[i].Dir = dir
		shards[i].Stderr = os.Stderr
		if err := shards[i].Start(); err != nil {
			t.Fatalf("starting shard %d: %v", i, err)
		}
	}
	for i, w := range shards {
		if err := w.Wait(); err != nil {
			t.Fatalf("shard %d failed: %v", i, err)
		}
	}

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := objstore.ManifestFingerprint(raw)
	if err != nil {
		t.Fatal(err)
	}
	st := queueStatusPath(t, url, "/m/"+fp+"/status")
	if done := st["done"].(float64); done != 6 { // 2 workloads × (baseline + 2 configs)
		t.Errorf("queue reports %v jobs done, want 6", done)
	}
	if stale := st["stale_completions"].(float64); stale != 0 {
		t.Errorf("lease-less shard completions counted %v stale, want 0", stale)
	}

	results := filepath.Join(dir, "results.json")
	mergeAgainstRefold(t, sweepBin, dir, url, manifest, store, results)
	want := singleProcessFig14(t, workloads, instructions)
	if got := loadFigureRows(t, results, "14"); !reflect.DeepEqual(want, got) {
		t.Errorf("run-shard -server rows differ from single-process rows:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestServerSweepSurvivesKilledWorker is the fault-tolerance
// acceptance test: a worker SIGKILLed mid-run forfeits its leased job
// after the lease expires, a second worker steals and finishes it, and
// the merged figure is still bit-identical to a single-process run.
func TestServerSweepSurvivesKilledWorker(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 1_000_000
	workloads := []string{"gcc", "gups"}

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
	run("plan", "-fig", "14",
		"-workloads", "gcc,gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifest)

	// A short lease so the orphaned job is re-claimable within the
	// test's patience, but still far above one job's wall time.
	url := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store"),
		"-addr", "127.0.0.1:0", "-lease", "1s")

	// The doomed worker: single goroutine, so it always holds exactly
	// one lease while alive. It is killed the moment it demonstrably
	// holds one (and before the queue could possibly drain).
	killWorkerUntilRequeued(t, sweepBin, dir, url, manifest, 0, 6)

	// The rescuer finishes everything, including the requeued job.
	rescue := run("work", "-server", url, "-name", "rescuer", "-manifest", manifest)
	t.Logf("rescuer: %s", rescue)

	st := queueStatus(t, url)
	if done := st["done"].(float64); done != 6 { // 2 workloads × (baseline + 2 configs)
		t.Errorf("queue reports %v jobs done after rescue, want 6", done)
	}
	if requeues := st["requeues"].(float64); requeues < 1 {
		t.Errorf("no lease was requeued (requeues = %v); the kill exercised nothing", requeues)
	}

	results := filepath.Join(dir, "results.json")
	mergeAgainstRefold(t, sweepBin, dir, url, manifest, filepath.Join(dir, "store"), results)
	gotRows := loadFigureRows(t, results, "14")
	want := singleProcessFig14(t, workloads, instructions)
	if !reflect.DeepEqual(want, gotRows) {
		t.Errorf("post-kill merged rows differ from single-process rows:\nwant: %+v\ngot:  %+v", want, gotRows)
	}
}

// TestServerSweepDaemonRestartMidSweep is the restartable-service
// acceptance test: a real daemon is SIGKILLed in the middle of a sweep
// — leases in flight, results half-pushed — and a fresh daemon process
// over the same store directory must recover the finished jobs from
// the store (recovered > 0, never re-simulated), let a fresh worker
// drain the remainder, and merge figures bit-identical to a
// single-process run. The restarted daemon is started WITHOUT
// -manifest: the manifest must come back from the store directory's
// persisted copy alone. It also records the BENCH service row:
// restart-recovery wall time vs a cold re-run of the same sweep, and
// heartbeat overhead per worker (the lease sits well below one job's
// wall time, so live workers demonstrably renew).
func TestServerSweepDaemonRestartMidSweep(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 3_000_000
	workloads := []string{"gcc", "gups"}
	const jobs = 6 // 2 workloads × (baseline + 2 configs)

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
	run("plan", "-fig", "14",
		"-workloads", "gcc,gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifest)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := objstore.ManifestFingerprint(raw)
	if err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(dir, "store")
	url1, daemon1 := startCachedCmd(t, cachedBin,
		"-manifest", manifest, "-store-dir", store,
		"-addr", "127.0.0.1:0", "-lease", "250ms")

	// The pre-restart worker: one goroutine so progress is gradual
	// enough to catch mid-sweep. It will die with the daemon — that
	// failure is the point, not a test error.
	wA := exec.Command(sweepBin, "work", "-server", url1, "-name", "pre-restart", "-workers", "1", "-manifest", manifest)
	wA.Dir = dir
	if err := wA.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		wA.Process.Kill()
		wA.Wait()
	}()

	// Wait until the sweep is demonstrably mid-flight: some jobs done,
	// some not.
	deadline := time.Now().Add(60 * time.Second)
	var doneAtKill float64
	for {
		st := queueStatus(t, url1)
		doneAtKill = st["done"].(float64)
		if doneAtKill >= 1 && doneAtKill < jobs {
			break
		}
		if doneAtKill >= jobs {
			t.Fatal("sweep finished before the daemon could be killed; raise -instructions")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no job completed in time: %v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// SIGKILL the daemon: no shutdown handler runs, every lease and every
	// done-bit lives only in the store directory now.
	if err := daemon1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	daemon1.Wait()
	wA.Wait() // dies on its next daemon round-trip; exit status irrelevant

	// Restart over the same store, WITHOUT -manifest: recovery must come
	// from the persisted manifest and the stored entries alone.
	recoverStart := time.Now()
	url2 := startCached(t, cachedBin,
		"-store-dir", store, "-addr", "127.0.0.1:0", "-lease", "250ms")
	st := queueStatusPath(t, url2, "/m/"+fp+"/status")
	recovered := st["recovered"].(float64)
	if recovered < 1 {
		t.Fatalf("restarted daemon recovered %v jobs from the warm store, want > 0 (status %v)", recovered, st)
	}
	if recovered < doneAtKill {
		t.Errorf("recovered %v < %v jobs done at kill time: finished work was forgotten", recovered, doneAtKill)
	}

	// A fresh worker drains the remainder against the restarted daemon.
	rescueOut := run("work", "-server", url2, "-name", "post-restart", "-manifest", manifest)
	recoverSecs := time.Since(recoverStart).Seconds()
	t.Logf("rescue: %s", rescueOut)

	st = queueStatusPath(t, url2, "/m/"+fp+"/status")
	if done := st["done"].(float64); done != jobs {
		t.Errorf("queue reports %v done after restart+rescue, want %d", done, jobs)
	}
	heartbeats := st["heartbeats"].(float64)
	if heartbeats < 1 {
		t.Errorf("no heartbeats recorded with lease (250ms) far below job wall time; renewal is dead")
	}

	// Merged figures must be bit-identical to a single-process run —
	// entries from before the kill, after the restart, and from the
	// doomed worker's final push all assemble into the same rows.
	results := filepath.Join(dir, "results.json")
	mergeAgainstRefold(t, sweepBin, dir, url2, manifest, store, results)
	gotRows := loadFigureRows(t, results, "14")
	want := singleProcessFig14(t, workloads, instructions)
	if !reflect.DeepEqual(want, gotRows) {
		t.Errorf("post-restart merged rows differ from single-process rows:\nwant: %+v\ngot:  %+v", want, gotRows)
	}

	// The comparison row for the BENCH file: the same sweep cold, in a
	// fresh daemon over an empty store.
	coldStart := time.Now()
	urlCold := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store-cold"),
		"-addr", "127.0.0.1:0", "-lease", "250ms")
	run("work", "-server", urlCold, "-name", "cold", "-manifest", manifest)
	coldSecs := time.Since(coldStart).Seconds()

	perWorkerHB := map[string]any{}
	if workers, ok := st["workers"].(map[string]any); ok {
		for name, row := range workers {
			if m, ok := row.(map[string]any); ok {
				perWorkerHB[name] = m["heartbeats"]
			}
		}
	}
	writeBenchSection(t, "service", map[string]any{
		"benchmark":                     "ServerSweepDaemonRestart",
		"jobs":                          jobs,
		"jobs_done_at_kill":             doneAtKill,
		"jobs_recovered_on_restart":     recovered,
		"restart_recovery_wall_seconds": recoverSecs,
		"cold_rerun_wall_seconds":       coldSecs,
		"lease_seconds":                 0.25,
		"heartbeats_total":              heartbeats,
		"heartbeats_per_worker":         perWorkerHB,
		"instructions_per_core":         instructions,
	})
}

// TestServerTwoManifestsConcurrently is the multi-tenant acceptance
// test: one daemon, started with no manifest at all, serves two
// different sweeps at once. Each worker registers its own manifest and
// must only ever be handed its own jobs; each namespace's status
// reports only its own progress; and each sweep's merge is
// bit-identical to its own single-process run.
func TestServerTwoManifestsConcurrently(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 200_000
	wlA, wlB := []string{"gcc", "mcf"}, []string{"gups"}
	const jobsA, jobsB = 6, 3

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

	manifestA := filepath.Join(dir, "manifest-a.json")
	manifestB := filepath.Join(dir, "manifest-b.json")
	run("plan", "-fig", "14", "-workloads", "gcc,mcf", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifestA)
	run("plan", "-fig", "14", "-workloads", "gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifestB)
	fpOf := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := objstore.ManifestFingerprint(raw)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	fpA, fpB := fpOf(manifestA), fpOf(manifestB)
	if fpA == fpB {
		t.Fatal("distinct plans share a fingerprint")
	}

	// One manifest-less daemon; each worker registers its own sweep.
	url := startCached(t, cachedBin,
		"-store-dir", filepath.Join(dir, "store"), "-addr", "127.0.0.1:0")
	workerA := exec.Command(sweepBin, "work", "-server", url, "-name", "wa", "-manifest", manifestA, "-workers", "2")
	workerB := exec.Command(sweepBin, "work", "-server", url, "-name", "wb", "-manifest", manifestB, "-workers", "2")
	for i, w := range []*exec.Cmd{workerA, workerB} {
		w.Dir = dir
		if err := w.Start(); err != nil {
			t.Fatalf("starting worker %d: %v", i, err)
		}
	}
	for i, w := range []*exec.Cmd{workerA, workerB} {
		if err := w.Wait(); err != nil {
			t.Fatalf("worker %d failed: %v", i, err)
		}
	}

	// Per-namespace status: each sweep fully done, by its own worker
	// only — a single cross-manifest claim would show up here as a
	// foreign worker name or a wrong total.
	stA := queueStatusPath(t, url, "/m/"+fpA+"/status")
	stB := queueStatusPath(t, url, "/m/"+fpB+"/status")
	if done := stA["done"].(float64); done != jobsA {
		t.Errorf("manifest A: %v done, want %d", done, jobsA)
	}
	if done := stB["done"].(float64); done != jobsB {
		t.Errorf("manifest B: %v done, want %d", done, jobsB)
	}
	claimedA := stA["claimed"].(map[string]any)
	claimedB := stB["claimed"].(map[string]any)
	if len(claimedA) != 1 || claimedA["wa"] == nil || claimedA["wa"].(float64) != jobsA {
		t.Errorf("manifest A claims crossed namespaces: %v", claimedA)
	}
	if len(claimedB) != 1 || claimedB["wb"] == nil || claimedB["wb"].(float64) != jobsB {
		t.Errorf("manifest B claims crossed namespaces: %v", claimedB)
	}

	// The consolidated service view sees both tenants and both workers.
	svc, err := objstore.NewClient(url).ServiceStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Manifests) != 2 {
		t.Errorf("service status sees %d manifests, want 2", len(svc.Manifests))
	}
	if len(svc.Workers) != 2 {
		t.Errorf("service status sees %d workers, want 2: %v", len(svc.Workers), svc.Workers)
	}

	// Each sweep merges bit-identically to its own single-process run.
	for _, tc := range []struct {
		name, manifest string
		workloads      []string
	}{
		{"a", manifestA, wlA},
		{"b", manifestB, wlB},
	} {
		results := filepath.Join(dir, "results-"+tc.name+".json")
		mergeAgainstRefold(t, sweepBin, dir, url, tc.manifest, filepath.Join(dir, "store"), results)
		gotRows := loadFigureRows(t, results, "14")
		want := singleProcessFig14(t, tc.workloads, instructions)
		if !reflect.DeepEqual(want, gotRows) {
			t.Errorf("manifest %s: merged rows differ from single-process rows:\nwant: %+v\ngot:  %+v", tc.name, want, gotRows)
		}
	}
}

// TestServerSweepShortLeaseHeartbeats is the heartbeat stress variant:
// the lease (150ms) sits far below one job's wall time, so without
// renewal every lease would expire mid-job and the sweep would thrash
// through requeues and stale completions. With heartbeats, a
// single live worker must drain the queue with zero requeues and zero
// stale completions.
func TestServerSweepShortLeaseHeartbeats(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 3_000_000
	const jobs = 3 // 1 workload × (baseline + 2 configs)

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
	run("plan", "-fig", "14", "-workloads", "gcc", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifest)

	url := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store"),
		"-addr", "127.0.0.1:0", "-lease", "150ms")

	// One worker, one goroutine: every job must survive on heartbeats
	// alone — no second claimer exists to paper over a lost lease.
	out := run("work", "-server", url, "-name", "slow-and-steady", "-workers", "1", "-manifest", manifest)
	t.Logf("worker: %s", out)

	st := queueStatus(t, url)
	if done := st["done"].(float64); done != jobs {
		t.Errorf("queue reports %v done, want %d", done, jobs)
	}
	if requeues := st["requeues"].(float64); requeues != 0 {
		t.Errorf("requeues = %v with a live heartbeating worker, want 0", requeues)
	}
	if stale := st["stale_completions"].(float64); stale != 0 {
		t.Errorf("stale_completions = %v, want 0: some completion lost its lease", stale)
	}
	if hb := st["heartbeats"].(float64); hb < jobs {
		t.Errorf("heartbeats = %v, want >= %d (every job outlives several lease windows)", hb, jobs)
	}
}

// TestServerSweepWarmStoreDifferential is the differential proof that
// done-ness comes from the store, not from daemon memory: after a full
// sweep, a brand-new daemon process over the same store directory must
// answer a second run of the same manifest entirely from Cache.Has —
// the second worker claims zero jobs and simulates nothing.
func TestServerSweepWarmStoreDifferential(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")

	const instructions = 150_000
	const jobs = 3

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
	run("plan", "-fig", "14", "-workloads", "gcc", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-shards", "1", "-out", manifest)

	store := filepath.Join(dir, "store")
	url1, daemon1 := startCachedCmd(t, cachedBin,
		"-manifest", manifest, "-store-dir", store, "-addr", "127.0.0.1:0")
	firstOut := run("work", "-server", url1, "-name", "first", "-manifest", manifest)
	if !strings.Contains(firstOut, fmt.Sprintf("claimed %d jobs (%d simulated", jobs, jobs)) {
		t.Fatalf("first run did not simulate all %d jobs: %s", jobs, firstOut)
	}
	daemon1.Process.Kill()
	daemon1.Wait()

	// Fresh daemon, same store: registration recovers every job.
	url2 := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", store, "-addr", "127.0.0.1:0")
	st := queueStatus(t, url2)
	if recovered := st["recovered"].(float64); recovered != jobs {
		t.Fatalf("restarted daemon recovered %v jobs, want %d", recovered, jobs)
	}

	secondOut := run("work", "-server", url2, "-name", "second", "-manifest", manifest)
	if !strings.Contains(secondOut, "claimed 0 jobs (0 simulated") {
		t.Errorf("second run against the warm store re-executed work: %s", secondOut)
	}
	st = queueStatus(t, url2)
	if done := st["done"].(float64); done != jobs {
		t.Errorf("done = %v after warm re-run, want %d", done, jobs)
	}
	if requeues := st["requeues"].(float64); requeues != 0 {
		t.Errorf("warm re-run caused %v requeues, want 0", requeues)
	}
}
