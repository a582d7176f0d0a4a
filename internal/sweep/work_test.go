package sweep

import (
	"strings"
	"testing"
)

// TestRunWorkRequestBudget pins what draining a mixed perf +
// Monte-Carlo manifest costs the daemon: two work-stealing workers
// claim and complete each job exactly once, PUT each result at most
// once, GET only a job's own entry (the hit check) plus a mitigated
// cell's baseline, and touch no other route. Claim polls the queue
// answers with "wait" or "done" grant nothing and are not bounded.
func TestRunWorkRequestBudget(t *testing.T) {
	m := tinyMixedManifest(t)
	_, c, log := runTwoWorkers(t, m)

	n, jobKeys, mitigated := len(m.Jobs), map[string]bool{}, 0
	for _, j := range m.Jobs {
		jobKeys[j.Key] = true
		if j.kind() == JobKindSim && j.Label != "" {
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
			if count[r]++; method == "PUT" && count[r] > 1 {
				t.Errorf("entry %.12s… was PUT %d times", key, count[r])
			}
		default:
			t.Errorf("unexpected request %q", r)
		}
	}
	if got := count["POST "+ctl+"complete"]; got != n {
		t.Errorf("%d complete requests for %d jobs", got, n)
	}
	if got := count["PUT"]; got > n {
		t.Errorf("%d entry PUTs for %d jobs", got, n)
	}
	if got, limit := count["GET"], n+mitigated; got > limit {
		t.Errorf("%d entry GETs, want at most %d (one hit check per job, one baseline read per mitigated cell)", got, limit)
	}

	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	claimed, completed := 0, 0
	for w := range st.Claimed {
		claimed += st.Claimed[w]
		completed += st.Complete[w]
	}
	if claimed != n || completed != n || st.Done != n {
		t.Errorf("the queue granted %d claims and %d completions and counts %d done, for %d jobs", claimed, completed, st.Done, n)
	}
	if st.Requeues != 0 || st.Heartbeats != 0 {
		t.Errorf("the queue counts %d requeues and %d heartbeats, want none", st.Requeues, st.Heartbeats)
	}
}
