package sweep

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerSweepFollowStreamsFigures is the acceptance test of the
// streaming merge at process level: a real rowswap-cached daemon
// serving a mixed perf+security manifest, a real `rowswap-figures
// -follow` process attached BEFORE any worker starts, and two real
// worker processes draining the queue. The follow process must observe
// monotonically increasing job coverage on its stderr frames, and the
// final render it prints to stdout when coverage completes must be
// byte-identical to `rowswap-figures -manifest` over the batch-merged
// results of the same sweep. It also records the BENCH streaming
// section: time to the first rendered figure vs time to the full
// merge.
func TestServerSweepFollowStreamsFigures(t *testing.T) {
	dir := t.TempDir()
	sweepBin := buildCLI(t, dir, "rowswap-sweep")
	cachedBin := buildCLI(t, dir, "rowswap-cached")
	figuresBin := buildCLI(t, dir, "rowswap-figures")

	const instructions = 200_000
	// 2 workloads × (baseline + 2 configs) sim jobs + Fig. 6's 15 cells
	// × 4 batches of Monte-Carlo trials, plus closed-form Table IV.
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
	run("plan", "-fig", "14,6,t4", "-workloads", "gcc,gups", "-cores", "2",
		"-instructions", fmt.Sprint(instructions), "-window", "200000",
		"-trials", "1", "-mc-batch", "250", "-out", manifest)

	url := startCached(t, cachedBin,
		"-manifest", manifest, "-store-dir", filepath.Join(dir, "store"),
		"-addr", "127.0.0.1:0", "-lease", "5s")

	// Attach the follower before any result exists, so it watches the
	// whole sweep stream in.
	start := time.Now()
	follow := exec.Command(figuresBin, "-follow", "-server", url)
	follow.Dir = dir
	var finalRender bytes.Buffer
	follow.Stdout = &finalRender
	stderr, err := follow.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := follow.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		follow.Process.Kill()
		follow.Wait()
	}()

	// Scan the follower's progress frames as they stream: every
	// "---- coverage D/J jobs ----" line opens a frame; a figure line
	// marked "rendered" inside a frame dates the first visible figure.
	var mu sync.Mutex
	var dones []int
	var firstRendered time.Time
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			var d, j int
			if _, err := fmt.Sscanf(line, "---- coverage %d/%d jobs ----", &d, &j); err == nil && j == totalJobs {
				dones = append(dones, d)
			}
			if strings.HasSuffix(line, "rendered") && firstRendered.IsZero() {
				firstRendered = time.Now()
			}
			mu.Unlock()
		}
	}()

	// Two workers drain the queue while the follower watches.
	var workers []*exec.Cmd
	for _, name := range []string{"w0", "w1"} {
		w := exec.Command(sweepBin, "work", "-server", url, "-name", name, "-workers", "2", "-manifest", manifest)
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

	// The follower exits on its own once coverage completes.
	exited := make(chan error, 1)
	go func() { exited <- follow.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("follow process failed: %v", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("follow process did not exit after the queue drained")
	}
	fullMergeSecs := time.Since(start).Seconds()
	<-scanDone

	mu.Lock()
	framesDone := append([]int(nil), dones...)
	firstFig := firstRendered
	mu.Unlock()
	if len(framesDone) < 2 {
		t.Fatalf("follower rendered %d coverage frames, want at least an early and a final one", len(framesDone))
	}
	for i := 1; i < len(framesDone); i++ {
		if framesDone[i] < framesDone[i-1] {
			t.Fatalf("coverage regressed between frames: %v", framesDone)
		}
	}
	if first := framesDone[0]; first == totalJobs {
		t.Error("first observed frame was already complete; the stream was never partial")
	}
	if last := framesDone[len(framesDone)-1]; last != totalJobs {
		t.Errorf("final frame covers %d/%d jobs", last, totalJobs)
	}
	if firstFig.IsZero() {
		t.Error("no frame ever marked a figure rendered")
	}

	// The batch path over the same store: merge, then re-render from the
	// results file. The follower's stdout must be byte-identical.
	results := filepath.Join(dir, "results.json")
	mergeAgainstRefold(t, sweepBin, dir, url, manifest, filepath.Join(dir, "store"), results)
	render := exec.Command(figuresBin, "-manifest", results)
	render.Dir = dir
	batchRender, err := render.Output()
	if err != nil {
		t.Fatalf("rowswap-figures -manifest: %v", err)
	}
	if !bytes.Equal(finalRender.Bytes(), batchRender) {
		t.Errorf("-follow final render differs from the batch-merge render:\nfollow (%d bytes):\n%s\nbatch (%d bytes):\n%s",
			finalRender.Len(), finalRender.Bytes(), len(batchRender), batchRender)
	}
	if !strings.Contains(finalRender.String(), "MC@4800") {
		t.Error("final render lacks the Fig. 6 Monte-Carlo column")
	}

	st := queueStatus(t, url)
	if done := st["done"].(float64); done != totalJobs {
		t.Errorf("queue reports %v jobs done, want %d", done, totalJobs)
	}

	writeBenchSection(t, "streaming", map[string]any{
		"benchmark":                    "ServerSweepFollowStreamsFigures",
		"jobs":                         totalJobs,
		"monte_carlo_batch_jobs":       mcJobs,
		"coverage_frames":              len(framesDone),
		"time_to_first_figure_seconds": firstFig.Sub(start).Seconds(),
		"time_to_full_merge_seconds":   fullMergeSecs,
	})
}
