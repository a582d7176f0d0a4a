package objstore

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// QueueJob is one claimable unit of a networked sweep: a deduplicated
// evaluation cell identified by its content-addressed result key.
// Workload and Label only name the job in logs and progress output —
// workers re-derive the actual simulation from the manifest.
type QueueJob struct {
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Label    string `json:"label"`
}

// jobState is a queue job's lifecycle: pending (claimable) → leased
// (one worker is on it, until the lease expires) → done.
type jobState uint8

const (
	jobPending jobState = iota
	jobLeased
	jobDone
)

// DefaultLease bounds how long a claimed job stays invisible to other
// workers. Heartbeats renew it, so it only needs to exceed one
// heartbeat interval — but a generous default keeps a worker whose
// heartbeats are delayed (GC pause, loaded host) from losing work; a
// worker that dies mid-job forfeits the job to the next claimer after
// at most this long past its last heartbeat.
const DefaultLease = 2 * time.Minute

// ErrLeaseLost reports that a lease no longer exists in the queue: it
// expired and the job was requeued, the job is already done, or the
// daemon restarted and rebuilt its queues. A worker receiving it from
// a heartbeat should stop renewing and rely on the stored-result proof
// at completion time (or re-claim); it is a protocol signal, never a
// reason to panic or to discard finished work.
var ErrLeaseLost = errors.New("objstore: lease is no longer held")

// Queue is the work-stealing core of the store daemon: workers claim
// the next pending job, run it, push the result, and complete the
// claim. Unlike plan-time sharding (LPT over estimated costs), the
// queue absorbs stragglers and heterogeneous machines by construction
// — a fast worker simply claims more jobs — and a worker killed
// mid-job only delays its jobs by one lease, because an expired lease
// returns the job to the pending pool. Live workers renew their leases
// with Heartbeat, so the lease can sit far below the longest job's
// wall time without slow-but-alive workers losing work.
//
// Completion is idempotent and tolerant of lease races: results are
// content-addressed, so when a requeued job is finished by two workers
// their pushes are bit-identical and either completion is acceptable.
type Queue struct {
	mu    sync.Mutex
	lease time.Duration
	now   func() time.Time // injectable for lease-expiry tests

	// epoch prefixes every lease id issued by this queue instance, so
	// a lease granted before a daemon restart can never collide with
	// one granted after (the restarted queue's counter starts over).
	epoch string

	jobs    []QueueJob
	state   []jobState
	leaseID []string
	holder  []string
	expires []time.Time
	next    int64

	requeues        int
	stale           int
	recovered       int
	storeReconciled int
	workers         map[string]*workerInfo

	// onDone, when set, observes every pending/leased → done transition
	// exactly once per job (completion, recovery, or store
	// reconciliation), called with q.mu held — it feeds the tenant's
	// completion feed, which only takes its own lock. stored, when set,
	// lets the sweep reconcile leases against the store: a leased job
	// whose result already exists is done, whoever pushed it. Both are
	// wired by the server before the queue is published; they are not
	// safe to set once the queue is shared.
	onDone func(job int, key string)
	stored func(key string) bool
}

// markDoneLocked transitions job i to done and notifies the completion
// feed. Callers must hold q.mu and must have checked the job is not
// already done (the feed carries each job at most once per transition).
func (q *Queue) markDoneLocked(i int) {
	q.state[i] = jobDone
	if q.onDone != nil {
		q.onDone(i, q.jobs[i].Key)
	}
}

// workerInfo accumulates one worker's lifetime interaction with the
// queue; lastSeen feeds the liveness column of the status endpoint.
type workerInfo struct {
	claimed    int
	completed  int
	heartbeats int
	lastSeen   time.Time
}

// NewQueue builds a queue over the given jobs (manifest order: a
// claim's Job index addresses the manifest's job set). lease <= 0
// selects DefaultLease.
func NewQueue(jobs []QueueJob, lease time.Duration) *Queue {
	if lease <= 0 {
		lease = DefaultLease
	}
	return &Queue{
		lease:   lease,
		now:     time.Now,
		epoch:   strconv.FormatInt(time.Now().UnixNano(), 36),
		jobs:    jobs,
		state:   make([]jobState, len(jobs)),
		leaseID: make([]string, len(jobs)),
		holder:  make([]string, len(jobs)),
		expires: make([]time.Time, len(jobs)),
		workers: map[string]*workerInfo{},
	}
}

// worker returns (creating if needed) the bookkeeping record for name
// and stamps its liveness. Callers must hold q.mu.
func (q *Queue) worker(name string) *workerInfo {
	w := q.workers[name]
	if w == nil {
		w = &workerInfo{}
		q.workers[name] = w
	}
	w.lastSeen = q.now()
	return w
}

// RecoverStored marks every pending job whose result the store already
// holds as done, returning how many were recovered. It is the restart
// path of a persistent daemon: lease and done bookkeeping live only in
// memory, but results are content-addressed files, so a queue rebuilt
// over a warm store re-derives done-ness instead of re-running the
// whole sweep (the figures endpoint reruns it on an idle queue). The
// count is exposed as QueueStats.Recovered so a restarted daemon can
// prove it resumed rather than forgot.
func (q *Queue) RecoverStored(stored func(key string) bool) int {
	if stored == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for i := range q.jobs {
		if q.state[i] == jobPending && stored(q.jobs[i].Key) {
			q.markDoneLocked(i)
			n++
		}
	}
	q.recovered += n
	return n
}

// Claim states returned to workers.
const (
	// ClaimJob: a job was leased to the worker; run it, push the
	// result, then Complete.
	ClaimJob = "job"
	// ClaimWait: every remaining job is leased to someone else — poll
	// again after RetryMS (a lease may expire or the queue may drain).
	ClaimWait = "wait"
	// ClaimDone: every job is complete; the worker can exit.
	ClaimDone = "done"
)

// Claim is a granted lease on one job.
type Claim struct {
	Job      int    `json:"job"`
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Label    string `json:"label"`
	Lease    string `json:"lease"`
	// LeaseSeconds tells the worker how long it holds the job before
	// the queue may hand it to someone else — and therefore how often
	// to heartbeat (comfortably more than once per lease).
	LeaseSeconds float64 `json:"lease_seconds"`
}

// ClaimResponse is the full answer to a claim request.
type ClaimResponse struct {
	Status  string `json:"status"` // ClaimJob, ClaimWait, or ClaimDone
	Claim   *Claim `json:"claim,omitempty"`
	RetryMS int    `json:"retry_ms,omitempty"`
}

// sweepExpiredLocked reconciles leased jobs against the store, then
// requeues every remaining lease that has run out. Reconciliation runs
// first: a leased job whose result entry already exists IS complete —
// results are content-addressed, so the entry proves the work happened
// even when the completion call never arrived (worker died between
// push and complete, stale-lease completion raced a requeue). Marking
// it done here, credited to the lease holder, keeps the service view
// honest — ActiveLeases never lists a completed cell as in-flight, and
// a completed-but-unacknowledged job is never requeued and re-claimed.
// Callers must hold q.mu.
func (q *Queue) sweepExpiredLocked() {
	now := q.now()
	for i := range q.jobs {
		if q.state[i] != jobLeased {
			continue
		}
		if q.stored != nil && q.stored(q.jobs[i].Key) {
			q.markDoneLocked(i)
			q.storeReconciled++
			if w := q.workers[q.holder[i]]; w != nil {
				w.completed++
			}
			continue
		}
		if now.After(q.expires[i]) {
			q.state[i] = jobPending
			q.requeues++
		}
	}
}

// Claim hands the next available job to worker. Expired leases are
// swept first, so a job orphaned by a dead worker is re-claimable the
// moment its lease runs out.
func (q *Queue) Claim(worker string) ClaimResponse {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepExpiredLocked()
	now := q.now()
	anyLeased := false
	for i := range q.jobs {
		switch q.state[i] {
		case jobPending:
			q.next++
			q.state[i] = jobLeased
			q.leaseID[i] = q.epoch + "." + strconv.FormatInt(q.next, 10)
			q.holder[i] = worker
			q.expires[i] = now.Add(q.lease)
			q.worker(worker).claimed++
			return ClaimResponse{Status: ClaimJob, Claim: &Claim{
				Job:          i,
				Key:          q.jobs[i].Key,
				Workload:     q.jobs[i].Workload,
				Label:        q.jobs[i].Label,
				Lease:        q.leaseID[i],
				LeaseSeconds: q.lease.Seconds(),
			}}
		case jobLeased:
			anyLeased = true
		}
	}
	if anyLeased {
		return ClaimResponse{Status: ClaimWait, RetryMS: 200}
	}
	return ClaimResponse{Status: ClaimDone}
}

// Heartbeat renews the lease on a claimed job: a worker still on the
// job keeps it for another full lease window from now, however long
// the simulation takes. A heartbeat whose lease the queue no longer
// holds — expired and requeued, already completed, out-of-range, or
// issued by a queue instance that has since been restarted — returns
// ErrLeaseLost (wrapped, with the reason), telling the worker to stop
// renewing; the finished result still completes via the stored-result
// proof. Expired leases are swept first, so a heartbeat that arrives
// after its own expiry is told the truth instead of resurrecting a
// lease another worker may already hold.
func (q *Queue) Heartbeat(job int, lease, worker string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if job < 0 || job >= len(q.jobs) {
		return fmt.Errorf("%w: no job %d in a %d-job queue", ErrLeaseLost, job, len(q.jobs))
	}
	q.sweepExpiredLocked()
	if q.state[job] == jobDone {
		return fmt.Errorf("%w: job %d is already done", ErrLeaseLost, job)
	}
	if q.state[job] != jobLeased || q.leaseID[job] != lease {
		return fmt.Errorf("%w: lease %q on job %d was requeued or issued before a restart", ErrLeaseLost, lease, job)
	}
	q.expires[job] = q.now().Add(q.lease)
	q.worker(worker).heartbeats++
	return nil
}

// Complete marks a job done. A matching lease always completes; a
// mismatched one (the lease expired and the job was requeued, the
// claim response never reached the worker, or the daemon restarted
// under the worker) completes only when stored confirms the job's
// result actually exists — results are content-addressed, so an
// existing entry proves the work happened, whoever pushed it. Those
// proof-based completions are counted as QueueStats.StaleCompletions:
// each one is a lease that outlived its bookkeeping, which is
// operationally interesting (lease too short for the fleet, or a
// daemon restart mid-sweep) even though the result is sound.
// Completing an already-done job is a no-op. An empty lease is a
// lease-less completion (run-shard -server pushes without claiming),
// accepted on the same proof and not counted stale.
func (q *Queue) Complete(job int, lease, worker string, stored func(key string) bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if job < 0 || job >= len(q.jobs) {
		return fmt.Errorf("objstore: no job %d in a %d-job queue", job, len(q.jobs))
	}
	if q.state[job] == jobDone {
		return nil
	}
	if q.state[job] == jobLeased && q.leaseID[job] == lease {
		q.markDoneLocked(job)
		q.worker(worker).completed++
		return nil
	}
	if stored != nil && stored(q.jobs[job].Key) {
		q.markDoneLocked(job)
		if lease != "" {
			q.stale++
		}
		q.worker(worker).completed++
		return nil
	}
	return fmt.Errorf("objstore: lease %q on job %d is stale (the job was requeued after lease expiry) and no result entry exists for key %.12s… — push the entry, then complete again", lease, job, q.jobs[job].Key)
}

// WorkerStats is one worker's row in a queue snapshot: lifetime
// counters plus liveness (seconds since the queue last heard from it —
// a claim, a heartbeat, or a completion).
type WorkerStats struct {
	Claimed      int     `json:"claimed"`
	Completed    int     `json:"completed"`
	Heartbeats   int     `json:"heartbeats"`
	IdleSeconds  float64 `json:"idle_seconds"`
	ActiveLeases int     `json:"active_leases"`
}

// QueueStats is a queue snapshot: totals plus per-worker claim and
// completion counts (the networked sweep's BENCH row). Claimed and
// Complete duplicate the per-worker counters of Workers for
// compatibility with pre-heartbeat consumers.
type QueueStats struct {
	Jobs     int `json:"jobs"`
	Pending  int `json:"pending"`
	Leased   int `json:"leased"`
	Done     int `json:"done"`
	Requeues int `json:"requeues"`
	// Recovered counts pending jobs marked done from the store's
	// existing entries, at registration (daemon restart over a warm
	// store) or by a figures request on an idle queue.
	Recovered int `json:"recovered"`
	// StaleCompletions counts completions accepted on the
	// stored-result proof rather than a live lease. Lease-less
	// completions (run-shard -server) are not counted.
	StaleCompletions int `json:"stale_completions"`
	// StoreReconciled counts leased jobs the sweep marked done because
	// their result entry already existed in the store — completions
	// whose acknowledgement never arrived. Each one is a cell the
	// service view would otherwise have shown in-flight after it was
	// already complete.
	StoreReconciled int `json:"store_reconciled"`
	// Heartbeats is the total lease renewals the queue has granted.
	Heartbeats int                    `json:"heartbeats"`
	Claimed    map[string]int         `json:"claimed"`
	Complete   map[string]int         `json:"completed"`
	Workers    map[string]WorkerStats `json:"workers,omitempty"`
}

// Stats snapshots the queue. Expired leases are swept first so the
// pending/leased split reflects reality even when no worker is
// actively claiming.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepExpiredLocked()
	now := q.now()
	st := QueueStats{Jobs: len(q.jobs), Requeues: q.requeues,
		Recovered: q.recovered, StaleCompletions: q.stale,
		StoreReconciled: q.storeReconciled,
		Claimed:         map[string]int{}, Complete: map[string]int{},
		Workers: map[string]WorkerStats{}}
	leases := map[string]int{}
	for i := range q.jobs {
		switch q.state[i] {
		case jobPending:
			st.Pending++
		case jobLeased:
			st.Leased++
			leases[q.holder[i]]++
		case jobDone:
			st.Done++
		}
	}
	for name, w := range q.workers {
		st.Heartbeats += w.heartbeats
		if w.claimed > 0 {
			st.Claimed[name] = w.claimed
		}
		if w.completed > 0 {
			st.Complete[name] = w.completed
		}
		st.Workers[name] = WorkerStats{
			Claimed:      w.claimed,
			Completed:    w.completed,
			Heartbeats:   w.heartbeats,
			IdleSeconds:  now.Sub(w.lastSeen).Seconds(),
			ActiveLeases: leases[name],
		}
	}
	return st
}
