package objstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simcache"
)

func TestEventLogCursorSemantics(t *testing.T) {
	l := newEventLog()
	if evs := l.since(0); len(evs) != 0 {
		t.Fatalf("fresh log has %d events", len(evs))
	}
	l.append(testKey(0))
	l.append(testKey(1))
	l.append(testKey(2))
	evs := l.since(0)
	if len(evs) != 3 {
		t.Fatalf("since(0) = %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != i+1 || ev.Key != testKey(byte(i)) {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	// The cursor is "events seen": advancing to the last Seq read
	// yields only what came after.
	if evs := l.since(2); len(evs) != 1 || evs[0].Seq != 3 {
		t.Fatalf("since(2) = %+v, want just seq 3", evs)
	}
	if evs := l.since(3); len(evs) != 0 {
		t.Fatalf("since(end) = %+v, want empty", evs)
	}
	// Out-of-range cursors — a client that outlived a daemon restart —
	// reset to zero and replay the whole feed.
	for _, cursor := range []int{-1, 4, 1 << 30} {
		if evs := l.since(cursor); len(evs) != 3 {
			t.Errorf("since(%d) = %d events, want full replay of 3", cursor, len(evs))
		}
	}
}

func TestEventLogWait(t *testing.T) {
	l := newEventLog()
	// Timeout path: nothing arrives, wait answers empty.
	if evs := l.wait(0, 10*time.Millisecond); len(evs) != 0 {
		t.Fatalf("wait on a quiet log returned %+v", evs)
	}
	// Wake path: an append during the wait is delivered promptly.
	var wg sync.WaitGroup
	wg.Add(1)
	var got []Event
	go func() {
		defer wg.Done()
		got = l.wait(0, 5*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	l.append(testKey(9))
	wg.Wait()
	if len(got) != 1 || got[0].Seq != 1 || got[0].Key != testKey(9) {
		t.Fatalf("woken wait returned %+v", got)
	}
	// Satisfied-immediately path: events already past the cursor return
	// without blocking.
	start := time.Now()
	if evs := l.wait(0, 5*time.Second); len(evs) != 1 {
		t.Fatalf("wait with history returned %+v", evs)
	}
	if time.Since(start) > time.Second {
		t.Error("wait blocked despite available events")
	}
}

// TestQueueReconcilesLeasedAgainstStore pins the stale-coverage fix: a
// leased job whose result is already in the store is a completed job,
// whatever happened to the completion call. The sweep must mark it
// done (credited to the lease holder), count a reconcile — and NOT a
// requeue or a stale completion — so /v1/service never shows a
// finished cell as in-flight longer than one poll.
func TestQueueReconcilesLeasedAgainstStore(t *testing.T) {
	q, _ := newTestQueue(2, time.Minute)
	stored := map[string]bool{}
	q.stored = func(key string) bool { return stored[key] }
	var feed []string
	q.onDone = func(job int, key string) { feed = append(feed, key) }

	claim := q.Claim("w0")
	if claim.Status != ClaimJob {
		t.Fatalf("claim: %+v", claim)
	}
	// Result lands in the store (say, the worker's Complete call was
	// lost in flight). The next sweep — here via Stats — reconciles.
	stored[claim.Claim.Key] = true
	st := q.Stats()
	if st.Done != 1 || st.Leased != 0 {
		t.Fatalf("stored lease not reconciled: %+v", st)
	}
	if st.StoreReconciled != 1 || st.Requeues != 0 || st.StaleCompletions != 0 {
		t.Fatalf("reconcile counters: reconciled=%d requeues=%d stale=%d, want 1/0/0",
			st.StoreReconciled, st.Requeues, st.StaleCompletions)
	}
	if st.Workers["w0"].Completed != 1 {
		t.Errorf("holder not credited for the reconciled job: %+v", st.Workers)
	}
	if len(feed) != 1 || feed[0] != claim.Claim.Key {
		t.Errorf("reconcile did not feed the event log: %v", feed)
	}
	// The worker is told to stop renewing; its late Complete is the
	// already-done no-op and must not double-credit.
	if err := q.Heartbeat(claim.Claim.Job, claim.Claim.Lease, "w0"); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("heartbeat on a reconciled job: %v, want ErrLeaseLost", err)
	}
	if err := q.Complete(claim.Claim.Job, claim.Claim.Lease, "w0", nil); err != nil {
		t.Errorf("late Complete after reconcile: %v", err)
	}
	if st := q.Stats(); st.Workers["w0"].Completed != 1 || len(feed) != 1 {
		t.Errorf("late Complete double-counted: %+v, feed %v", st.Workers, feed)
	}
	// An expired lease with no stored result still requeues normally.
	c2 := q.Claim("w1")
	if c2.Status != ClaimJob {
		t.Fatalf("second claim: %+v", c2)
	}
	q.now = func() time.Time { return time.Unix(1000, 0).Add(5 * time.Minute) }
	if st := q.Stats(); st.Requeues != 1 || st.StoreReconciled != 1 {
		t.Errorf("unstored expiry: requeues=%d reconciled=%d, want 1/1", st.Requeues, st.StoreReconciled)
	}
}

// fakeFolder is a FigureFolder for server tests: objstore cannot
// import sweep (the dependency points the other way), so the real
// accumulator is stood in for by a fold counter with the same
// tolerate-unknown, idempotent contract.
type fakeFolder struct {
	mu     sync.Mutex
	known  map[string]bool
	folded map[string]int
}

func (f *fakeFolder) FoldKey(key string, store simcache.Store) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.known[key] {
		return false, nil
	}
	f.folded[key]++
	return true, nil
}

func (f *fakeFolder) PartialJSON() ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return json.Marshal(map[string]int{"folded": len(f.folded)})
}

// TestServerEventsAndFigures drives the streaming surface end to end
// over HTTP: completions land in the events feed in order, the feed's
// long-poll wakes on completion, cursors resume and replay, and the
// figures endpoint drains the feed into the folder exactly once per
// event.
func TestServerEventsAndFigures(t *testing.T) {
	jobs := testJobs(3)
	folder := &fakeFolder{known: map[string]bool{}, folded: map[string]int{}}
	for _, j := range jobs {
		folder.known[j.Key] = true
	}
	_, c, _ := newQueueServer(t, ServerOptions{
		Lease:     time.Minute,
		NewFolder: func([]byte) (FigureFolder, error) { return folder, nil },
	}, jobs)

	if evs, err := c.Events(0, 0); err != nil || len(evs) != 0 {
		t.Fatalf("events before any completion: (%v, %v)", evs, err)
	}
	// Complete job 0; the feed must carry it.
	resp, err := c.ClaimJob("w0")
	if err != nil || resp.Status != ClaimJob {
		t.Fatalf("claim: %+v, %v", resp, err)
	}
	if err := c.Put(resp.Claim.Key, map[string]int{"v": 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(resp.Claim.Job, resp.Claim.Lease, "w0"); err != nil {
		t.Fatal(err)
	}
	evs, err := c.Events(0, 0)
	if err != nil || len(evs) != 1 || evs[0].Seq != 1 || evs[0].Key != resp.Claim.Key {
		t.Fatalf("events after one completion: %+v, %v", evs, err)
	}
	// Long-poll: a waiting events request is woken by a completion.
	type polled struct {
		evs []Event
		err error
	}
	ch := make(chan polled, 1)
	go func() {
		evs, err := c.Events(1, 5*time.Second)
		ch <- polled{evs, err}
	}()
	time.Sleep(30 * time.Millisecond)
	resp2, err := c.ClaimJob("w0")
	if err != nil || resp2.Status != ClaimJob {
		t.Fatalf("second claim: %+v, %v", resp2, err)
	}
	if err := c.Put(resp2.Claim.Key, map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(resp2.Claim.Job, resp2.Claim.Lease, "w0"); err != nil {
		t.Fatal(err)
	}
	got := <-ch
	if got.err != nil || len(got.evs) != 1 || got.evs[0].Seq != 2 {
		t.Fatalf("long-poll result: %+v", got)
	}
	// A stale (too-large) cursor replays from the start.
	if evs, err := c.Events(99, 0); err != nil || len(evs) != 2 {
		t.Fatalf("replay after out-of-range cursor: %+v, %v", evs, err)
	}

	// Figures: the endpoint drains the feed into the folder once per
	// event, idempotently across repeated requests.
	for i := 0; i < 3; i++ {
		data, err := c.FiguresJSON()
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]int
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap["folded"] != 2 {
			t.Fatalf("snapshot %d folded %d keys, want 2", i, snap["folded"])
		}
	}
	folder.mu.Lock()
	for k, n := range folder.folded {
		if n != 1 {
			t.Errorf("key %.12s folded %d times, want exactly once", k, n)
		}
	}
	folder.mu.Unlock()
}

// TestServerFiguresWithoutFolder: a daemon with no folder constructor
// (or a manifest the constructor rejected) serves events and the queue
// but answers 404 on figures.
func TestServerFiguresWithoutFolder(t *testing.T) {
	_, c, _ := newQueueServer(t, ServerOptions{Lease: time.Minute}, testJobs(1))
	if _, err := c.FiguresJSON(); err == nil {
		t.Error("folderless server served partial figures")
	}
	if _, err := c.Events(0, 0); err != nil {
		t.Errorf("folderless server must still serve events: %v", err)
	}
	// A rejected manifest degrades the same way instead of failing
	// registration.
	_, c2, _ := newQueueServer(t, ServerOptions{
		Lease:     time.Minute,
		NewFolder: func([]byte) (FigureFolder, error) { return nil, fmt.Errorf("not an evaluation manifest") },
	}, testJobs(1))
	if _, err := c2.FiguresJSON(); err == nil {
		t.Error("rejected-folder server served partial figures")
	}
	if _, err := c2.Events(0, 0); err != nil {
		t.Errorf("rejected-folder server must still serve events: %v", err)
	}
}

// TestServerEventsSeedFromWarmStore: results already in the store when
// a manifest registers (daemon restart, pre-warmed cache) appear in
// the completion feed, so a -follow client attached from cursor zero
// sees the history, not just new completions.
func TestServerEventsSeedFromWarmStore(t *testing.T) {
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs(3)
	if err := cache.Put(jobs[1].Key, map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cache, ServerOptions{Lease: time.Minute})
	reg, err := srv.Register(jobsManifest(jobs))
	if err != nil {
		t.Fatal(err)
	}
	evs := srv.tenantFor(reg.Fingerprint).events.since(0)
	if len(evs) != 1 || evs[0].Key != jobs[1].Key {
		t.Fatalf("warm-store feed = %+v, want the recovered key", evs)
	}
}

// TestServerLeaseLessCompletionAndIdleRecovery covers results pushed
// outside the claim protocol. A completion naming no lease needs the
// stored entry and counts as stale, like any completion accepted on
// that proof. A figures request on an idle queue (nothing leased)
// folds pending jobs whose entries were pushed with no completion at
// all, while a queue with a live lease is left to its completions.
func TestServerLeaseLessCompletionAndIdleRecovery(t *testing.T) {
	newServer := func(jobs []QueueJob) (*Client, *fakeFolder) {
		folder := &fakeFolder{known: map[string]bool{}, folded: map[string]int{}}
		for _, j := range jobs {
			folder.known[j.Key] = true
		}
		_, c, _ := newQueueServer(t, ServerOptions{
			Lease:     time.Minute,
			NewFolder: func([]byte) (FigureFolder, error) { return folder, nil },
		}, jobs)
		return c, folder
	}
	folded := func(c *Client) int {
		t.Helper()
		data, err := c.FiguresJSON()
		if err != nil {
			t.Fatal(err)
		}
		var snap map[string]int
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		return snap["folded"]
	}

	jobs := testJobs(3)
	c, _ := newServer(jobs)
	if err := c.Complete(0, "", "w0"); err == nil {
		t.Fatal("lease-less completion accepted with no stored entry")
	}
	if err := c.Put(jobs[0].Key, map[string]int{"v": 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(0, "", "w0"); err != nil {
		t.Fatalf("lease-less completion of a stored job: %v", err)
	}
	if evs, err := c.Events(0, 0); err != nil || len(evs) != 1 || evs[0].Key != jobs[0].Key {
		t.Fatalf("events after a lease-less completion: %+v, %v", evs, err)
	}
	// Jobs 1 and 2 are pushed by a worker that dies before completing
	// them.
	for _, j := range jobs[1:] {
		if err := c.Put(j.Key, map[string]int{"v": 1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := folded(c); n != 3 {
		t.Errorf("idle queue: snapshot folded %d jobs, want 3", n)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 3 || st.Recovered != 2 || st.StaleCompletions != 1 || st.Workers["w0"].Completed != 1 {
		t.Errorf("status: done=%d recovered=%d stale=%d workers=%v, want 3/2/1/w0 completed 1",
			st.Done, st.Recovered, st.StaleCompletions, st.Workers)
	}

	// With a live lease, a pending job's stored entry waits for its
	// completion (or for the queue to go idle).
	jobs = testJobs(2)
	c, _ = newServer(jobs)
	resp, err := c.ClaimJob("w0")
	if err != nil || resp.Status != ClaimJob || resp.Claim.Job != 0 {
		t.Fatalf("claim: %+v, %v", resp, err)
	}
	if err := c.Put(jobs[1].Key, map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if n := folded(c); n != 0 {
		t.Errorf("leased queue: snapshot folded %d jobs, want 0", n)
	}
	if err := c.Put(jobs[0].Key, map[string]int{"v": 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(0, resp.Claim.Lease, "w0"); err != nil {
		t.Fatal(err)
	}
	if n := folded(c); n != 2 {
		t.Errorf("queue idle again: snapshot folded %d jobs, want 2", n)
	}
}
