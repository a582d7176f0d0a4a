package sweep

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSyncWriterSerializesConcurrentLines hammers the progress-writer
// fix directly: many goroutines writing whole lines through one
// syncProgress-wrapped buffer must interleave at line granularity —
// every line intact, every write accounted for. Run with -race this
// also proves the wrapped writer is the only synchronization needed.
func TestSyncWriterSerializesConcurrentLines(t *testing.T) {
	var buf bytes.Buffer
	w := syncProgress(&buf)
	const writers, lines = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				fmt.Fprintf(w, "writer-%02d line %03d\n", g, i)
			}
		}(g)
	}
	wg.Wait()
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != writers*lines {
		t.Fatalf("%d lines written, want %d", len(got), writers*lines)
	}
	for _, line := range got {
		var g, i int
		if _, err := fmt.Sscanf(line, "writer-%d line %d", &g, &i); err != nil {
			t.Fatalf("torn or garbled progress line %q: %v", line, err)
		}
	}
}

// TestSyncProgressWrapping pins the wrapper's edge: nil stays nil, so
// the progress == nil fast paths keep working.
func TestSyncProgressWrapping(t *testing.T) {
	if syncProgress(nil) != nil {
		t.Error("syncProgress(nil) is not nil")
	}
}

// TestRunWorkProgressRaceHammer drives the real concurrent call site
// of the shared progress writer: a work-stealing worker running 8
// goroutines against a loopback daemon, with progress aimed at a plain
// bytes.Buffer. Unsynchronized, those goroutines' fmt.Fprintf calls
// race (-race reports it) and can interleave partial lines. The worker
// must produce one intact progress line per job.
func TestRunWorkProgressRaceHammer(t *testing.T) {
	m := mustPlanSecurity(t, []string{"6"})
	_, c, _ := serveStore(t, m, []int{}, false)
	var buf bytes.Buffer
	if _, err := m.RunWork(c, "hammer", 8, &buf); err != nil {
		t.Fatal(err)
	}
	var jobLines int
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "  hammer: ") &&
			(strings.HasSuffix(line, " simulated") || strings.HasSuffix(line, " from store")) {
			jobLines++
		} else {
			t.Errorf("garbled progress line %q", line)
		}
	}
	if jobLines != len(m.Jobs) {
		t.Errorf("%d job progress lines for %d jobs", jobLines, len(m.Jobs))
	}
}
