package sweep

import (
	"strings"
	"testing"

	"repro/internal/simcache"
)

// TestRunWorkRequestBudget pins what draining a mixed perf +
// Monte-Carlo manifest costs the daemon: two work-stealing workers
// claim and complete each job exactly once, GET only a job's own entry
// (the hit check) plus a mitigated cell's baseline, and touch no other
// route. Each worker PUTs an entry at most once; only a baseline may be
// PUT by both, when one worker resolves it for a sibling while the
// other still runs the baseline's own job. Claim polls the queue
// answers with "wait" or "done" grant nothing and are not bounded.
func TestRunWorkRequestBudget(t *testing.T) {
	m := tinyMixedManifest(t)
	_, c, log := runTwoWorkers(t, m)

	n, jobKeys, baselines, mitigated := len(m.Jobs), map[string]bool{}, map[string]bool{}, 0
	for _, j := range m.Jobs {
		jobKeys[j.Key] = true
		switch {
		case j.kind() != JobKindSim:
		case j.Label == "":
			baselines[j.Key] = true
		default:
			mitigated++
		}
	}
	ctl := "/m/" + c.Fingerprint() + "/"
	count := map[string]int{}
	for _, r := range log.list() {
		method, path, _ := strings.Cut(r, " ")
		switch key, entry := strings.CutPrefix(path, "/v1/entry/"); {
		case r == "POST "+ctl+"claim" || r == "POST "+ctl+"complete":
			count[r]++
		case entry && jobKeys[key] && (method == "GET" || method == "PUT"):
			count[method]++
			limit := 1
			if baselines[key] {
				limit = 2
			}
			if count[r]++; method == "PUT" && count[r] > limit {
				t.Errorf("entry %.12s… was PUT %d times", key, count[r])
			}
		default:
			t.Errorf("unexpected request %q", r)
		}
	}
	if got := count["POST "+ctl+"complete"]; got != n {
		t.Errorf("%d complete requests for %d jobs", got, n)
	}
	if got, limit := count["PUT"], n+len(baselines); got > limit {
		t.Errorf("%d entry PUTs for %d jobs, want at most %d (one per job, one more per baseline)", got, n, limit)
	}
	if got, limit := count["GET"], n+mitigated; got > limit {
		t.Errorf("%d entry GETs, want at most %d (one hit check per job, one baseline read per mitigated cell)", got, limit)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	claimed, completed := 0, 0
	for _, w := range st.Workers {
		claimed += w.Claimed
		completed += w.Completed
	}
	if claimed != n || completed != n || st.Done != n {
		t.Errorf("the queue granted %d claims and %d completions and counts %d done, for %d jobs", claimed, completed, st.Done, n)
	}
	if st.Requeues != 0 || st.Heartbeats != 0 {
		t.Errorf("the queue counts %d requeues and %d heartbeats, want none", st.Requeues, st.Heartbeats)
	}
}

// TestRunWorkCountsIndependentOfGoroutines pins how one worker
// process resolves its jobs: every baseline is claimed before any
// mitigated cell and the call's goroutines share one Resolver, so a
// sibling always finds its baseline resolved or in flight here. How
// many jobs are simulated, derived, resumed and read from the store
// then does not depend on how many goroutines claim them.
func TestRunWorkCountsIndependentOfGoroutines(t *testing.T) {
	m := mustPlan(t)
	var counts []WorkStats
	for _, goroutines := range []int{1, 2} {
		_, c, _ := serveStore(t, m, []int{}, false)
		stats, err := m.RunWork(c, "w", goroutines, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := stats.Simulated + stats.Derived + stats.Resumed + stats.Hits; stats.Claimed != len(m.Jobs) || got != stats.Claimed {
			t.Errorf("%d goroutines: %+v for %d jobs", goroutines, stats, len(m.Jobs))
		}
		counts = append(counts, stats)
	}
	if counts[0] != counts[1] {
		t.Errorf("1 goroutine resolved %+v, 2 goroutines %+v", counts[0], counts[1])
	}
	if counts[0].Derived == 0 || counts[0].Resumed == 0 || counts[0].Hits != 0 {
		t.Errorf("counts %+v: want some derived and some resumed cells, and no store hits", counts[0])
	}
}

// TestRunWorkFreshStoresGetEveryBaseline drains one manifest twice in
// one process, each time into a fresh daemon's empty store. Each
// RunWork call holds its own Resolver, so the second call does not
// take the first call's baselines as stored: both stores end with
// every job's entry, baselines included, and both sweeps merge.
func TestRunWorkFreshStoresGetEveryBaseline(t *testing.T) {
	m := mustPlan(t)
	for _, name := range []string{"first", "second"} {
		dir, c, _ := serveStore(t, m, []int{}, true)
		if _, err := m.RunWork(c, name, 2, nil); err != nil {
			t.Fatalf("%s sweep: %v", name, err)
		}
		store, err := simcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range m.Jobs {
			if !store.Has(j.Key) {
				t.Errorf("%s sweep: the store lacks %s", name, j.desc())
			}
		}
		if _, err := m.MergeServer("", c, false, nil); err != nil {
			t.Errorf("%s sweep: %v", name, err)
		}
	}
}
