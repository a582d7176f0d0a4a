package objstore

import (
	"errors"
	"testing"
	"time"
)

func testJobs(n int) []QueueJob {
	jobs := make([]QueueJob, n)
	for i := range jobs {
		jobs[i] = QueueJob{Key: testKey(byte(i)), Workload: "w", Label: "l"}
	}
	return jobs
}

// testKey builds a distinct well-formed (64 hex chars) key per seed.
func testKey(seed byte) string {
	const hexdigits = "0123456789abcdef"
	b := make([]byte, 64)
	for i := range b {
		b[i] = hexdigits[(int(seed)+i)%16]
	}
	return string(b)
}

// fakeClock drives lease expiry deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestQueue(n int, lease time.Duration) (*Queue, *fakeClock) {
	q := NewQueue(testJobs(n), lease)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	q.now = clk.now
	return q, clk
}

func TestQueueDrainsInOrder(t *testing.T) {
	q, _ := newTestQueue(3, time.Minute)
	for i := 0; i < 3; i++ {
		resp := q.Claim("w0")
		if resp.Status != ClaimJob || resp.Claim.Job != i {
			t.Fatalf("claim %d: %+v", i, resp)
		}
		if err := q.Complete(resp.Claim.Job, resp.Claim.Lease, "w0", nil); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
	if resp := q.Claim("w0"); resp.Status != ClaimDone {
		t.Fatalf("drained queue still hands out work: %+v", resp)
	}
	st := q.Stats()
	if st.Done != 3 || st.Pending != 0 || st.Leased != 0 || st.Requeues != 0 {
		t.Errorf("stats after drain: %+v", st)
	}
	if w := st.Workers["w0"]; w.Claimed != 3 || w.Completed != 3 {
		t.Errorf("per-worker counts: %+v", st)
	}
}

func TestQueueWaitWhileAllLeased(t *testing.T) {
	q, _ := newTestQueue(1, time.Minute)
	first := q.Claim("w0")
	if first.Status != ClaimJob {
		t.Fatalf("first claim: %+v", first)
	}
	// The only job is leased: a second worker must wait, not get the
	// same job and not be told the queue is done.
	second := q.Claim("w1")
	if second.Status != ClaimWait || second.RetryMS <= 0 {
		t.Fatalf("second claim while leased: %+v", second)
	}
}

func TestQueueLeaseExpiryRequeues(t *testing.T) {
	q, clk := newTestQueue(1, time.Minute)
	dead := q.Claim("dead")
	if dead.Status != ClaimJob {
		t.Fatalf("claim: %+v", dead)
	}
	// Before expiry the job is invisible; after expiry it is stolen.
	if resp := q.Claim("rescuer"); resp.Status != ClaimWait {
		t.Fatalf("claim before expiry: %+v", resp)
	}
	clk.advance(time.Minute + time.Second)
	stolen := q.Claim("rescuer")
	if stolen.Status != ClaimJob || stolen.Claim.Job != 0 {
		t.Fatalf("claim after expiry: %+v", stolen)
	}
	if stolen.Claim.Lease == dead.Claim.Lease {
		t.Error("requeued job reuses the dead worker's lease id")
	}
	if st := q.Stats(); st.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", st.Requeues)
	}
	// The rescuer's completion works; the dead worker's stale lease
	// then hits the already-done no-op path.
	if err := q.Complete(stolen.Claim.Job, stolen.Claim.Lease, "rescuer", nil); err != nil {
		t.Fatalf("rescuer complete: %v", err)
	}
	if err := q.Complete(dead.Claim.Job, dead.Claim.Lease, "dead", nil); err != nil {
		t.Errorf("completing an already-done job must be a no-op: %v", err)
	}
}

func TestQueueStaleLeaseNeedsStoredProof(t *testing.T) {
	q, clk := newTestQueue(1, time.Minute)
	slow := q.Claim("slow")
	clk.advance(2 * time.Minute) // lease expires while "slow" is still simulating
	// The job is requeued and re-leased to another worker, so "slow"'s
	// lease is genuinely stale (an expired-but-unstolen lease would
	// still complete: nobody else is on the job).
	if resp := q.Claim("thief"); resp.Status != ClaimJob {
		t.Fatalf("expired job not re-leased: %+v", resp)
	}
	// No proof: the stale completion must be rejected with an
	// actionable error, because nothing guarantees the result exists.
	err := q.Complete(slow.Claim.Job, slow.Claim.Lease, "slow", func(string) bool { return false })
	if err == nil {
		t.Fatal("stale lease completed without a stored result")
	}
	// With the entry stored (content-addressed: whoever pushed it, the
	// bytes are right), the completion is accepted.
	if err := q.Complete(slow.Claim.Job, slow.Claim.Lease, "slow", func(string) bool { return true }); err != nil {
		t.Fatalf("stale lease with stored proof rejected: %v", err)
	}
	if st := q.Stats(); st.Done != 1 {
		t.Errorf("job not done after proven completion: %+v", st)
	}
}

func TestQueueCompleteBounds(t *testing.T) {
	q, _ := newTestQueue(2, time.Minute)
	if err := q.Complete(-1, "x", "w", nil); err == nil {
		t.Error("negative job index accepted")
	}
	if err := q.Complete(2, "x", "w", nil); err == nil {
		t.Error("out-of-range job index accepted")
	}
	if err := q.Complete(0, "bogus-lease", "w", func(string) bool { return false }); err == nil {
		t.Error("pending job completed with a bogus lease and no stored proof")
	}
}

func TestQueueHeartbeatKeepsSlowWorkerAlive(t *testing.T) {
	// A slow-but-alive worker heartbeats inside every lease window and
	// must never be requeued, however long the job takes: here the job
	// runs 2.5x the lease.
	q, clk := newTestQueue(1, time.Minute)
	slow := q.Claim("slow")
	if slow.Status != ClaimJob {
		t.Fatalf("claim: %+v", slow)
	}
	if slow.Claim.LeaseSeconds != 60 {
		t.Errorf("LeaseSeconds = %g, want 60", slow.Claim.LeaseSeconds)
	}
	for i := 0; i < 3; i++ {
		clk.advance(50 * time.Second) // inside the window, past 1/2 of it
		if err := q.Heartbeat(slow.Claim.Job, slow.Claim.Lease, "slow"); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		// The renewed lease keeps the job invisible to thieves.
		if resp := q.Claim("thief"); resp.Status != ClaimWait {
			t.Fatalf("job visible to thief after heartbeat %d: %+v", i, resp)
		}
	}
	if err := q.Complete(slow.Claim.Job, slow.Claim.Lease, "slow", nil); err != nil {
		t.Fatalf("complete after 150s on a 60s lease: %v", err)
	}
	st := q.Stats()
	if st.Requeues != 0 || st.StaleCompletions != 0 {
		t.Errorf("heartbeating worker was requeued: %+v", st)
	}
	if st.Heartbeats != 3 || st.Workers["slow"].Heartbeats != 3 {
		t.Errorf("heartbeat counters: total=%d per-worker=%+v", st.Heartbeats, st.Workers["slow"])
	}
}

func TestQueueSilentWorkerRequeued(t *testing.T) {
	// The counterpart: a worker that stops heartbeating loses the job
	// one lease after its last sign of life — and its own late
	// heartbeat is answered with ErrLeaseLost, not a resurrection.
	q, clk := newTestQueue(1, time.Minute)
	dead := q.Claim("dead")
	clk.advance(50 * time.Second)
	if err := q.Heartbeat(dead.Claim.Job, dead.Claim.Lease, "dead"); err != nil {
		t.Fatalf("live heartbeat: %v", err)
	}
	clk.advance(time.Minute + time.Second) // silence past the renewed lease
	err := q.Heartbeat(dead.Claim.Job, dead.Claim.Lease, "dead")
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("late heartbeat: got %v, want ErrLeaseLost", err)
	}
	if resp := q.Claim("rescuer"); resp.Status != ClaimJob {
		t.Fatalf("expired job not stealable: %+v", resp)
	}
	if st := q.Stats(); st.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", st.Requeues)
	}
}

func TestQueueHeartbeatLeaseLostCases(t *testing.T) {
	// Every way a lease can be gone answers the same typed signal.
	q, _ := newTestQueue(2, time.Minute)
	c := q.Claim("w0")
	for _, tc := range []struct {
		name  string
		job   int
		lease string
	}{
		{"job out of range (negative)", -1, c.Claim.Lease},
		{"job out of range (high)", 2, c.Claim.Lease},
		{"foreign lease id (pre-restart epoch)", c.Claim.Job, "deadbeef.1"},
		{"unclaimed job", 1, c.Claim.Lease},
	} {
		if err := q.Heartbeat(tc.job, tc.lease, "w0"); !errors.Is(err, ErrLeaseLost) {
			t.Errorf("%s: got %v, want ErrLeaseLost", tc.name, err)
		}
	}
	if err := q.Complete(c.Claim.Job, c.Claim.Lease, "w0", nil); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := q.Heartbeat(c.Claim.Job, c.Claim.Lease, "w0"); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("heartbeat on done job: want ErrLeaseLost")
	}
}

func TestQueueCompletionMatrix(t *testing.T) {
	// The accept/reject matrix for completions, including what each
	// outcome does to the stale_completions counter.
	stored := func(string) bool { return true }
	missing := func(string) bool { return false }
	for _, tc := range []struct {
		name   string
		setup  func(q *Queue, clk *fakeClock) (job int, lease string)
		proof  func(string) bool
		accept bool
		stale  int
	}{
		{
			name: "valid live lease",
			setup: func(q *Queue, clk *fakeClock) (int, string) {
				c := q.Claim("w")
				return c.Claim.Job, c.Claim.Lease
			},
			proof: missing, accept: true, stale: 0,
		},
		{
			name: "expired and re-leased, result stored",
			setup: func(q *Queue, clk *fakeClock) (int, string) {
				c := q.Claim("w")
				clk.advance(2 * time.Minute)
				q.Claim("thief")
				return c.Claim.Job, c.Claim.Lease
			},
			proof: stored, accept: true, stale: 1,
		},
		{
			name: "expired and re-leased, result missing",
			setup: func(q *Queue, clk *fakeClock) (int, string) {
				c := q.Claim("w")
				clk.advance(2 * time.Minute)
				q.Claim("thief")
				return c.Claim.Job, c.Claim.Lease
			},
			proof: missing, accept: false, stale: 0,
		},
		{
			name: "wrong worker's forged lease, result missing",
			setup: func(q *Queue, clk *fakeClock) (int, string) {
				c := q.Claim("honest")
				return c.Claim.Job, "forged-lease"
			},
			proof: missing, accept: false, stale: 0,
		},
		{
			name: "wrong lease but result stored (claim response lost in transit)",
			setup: func(q *Queue, clk *fakeClock) (int, string) {
				c := q.Claim("w")
				return c.Claim.Job, "lost-in-transit"
			},
			proof: stored, accept: true, stale: 1,
		},
	} {
		q, clk := newTestQueue(1, time.Minute)
		job, lease := tc.setup(q, clk)
		err := q.Complete(job, lease, "w", tc.proof)
		if tc.accept && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.accept && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		st := q.Stats()
		if st.StaleCompletions != tc.stale {
			t.Errorf("%s: stale_completions = %d, want %d", tc.name, st.StaleCompletions, tc.stale)
		}
		if wantDone := 0; tc.accept {
			wantDone = 1
			if st.Done != wantDone {
				t.Errorf("%s: done = %d, want %d", tc.name, st.Done, wantDone)
			}
		}
	}
}

func TestQueueRecoverStored(t *testing.T) {
	// Restart path: a queue rebuilt over a warm store marks already
	// stored jobs done up front, and only the genuinely missing ones
	// are ever claimed.
	q, _ := newTestQueue(3, time.Minute)
	storedKeys := map[string]bool{testKey(0): true, testKey(2): true}
	n := q.RecoverStored(func(key string) bool { return storedKeys[key] })
	if n != 2 {
		t.Fatalf("recovered %d jobs, want 2", n)
	}
	st := q.Stats()
	if st.Done != 2 || st.Pending != 1 || st.Recovered != 2 {
		t.Fatalf("stats after recovery: %+v", st)
	}
	resp := q.Claim("w")
	if resp.Status != ClaimJob || resp.Claim.Job != 1 {
		t.Fatalf("claim after recovery: %+v (want the one unstored job)", resp)
	}
	// Recovery is idempotent and never resurrects leased or done jobs.
	if n := q.RecoverStored(func(string) bool { return true }); n != 0 {
		t.Errorf("re-recovery touched %d non-pending jobs", n)
	}
	if n := q.RecoverStored(nil); n != 0 {
		t.Errorf("nil store recovered %d jobs", n)
	}
}
