package sweep

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/objstore"
)

// This file is the networked side of the sweep: workers that push and
// pull results through a rowswap-cached store daemon (internal/
// objstore) instead of local cache directories, a work-stealing
// execution mode that claims jobs from the daemon's queue instead of
// honoring plan-time shard assignments, and a merge transport that
// reads the daemon's already-folded figure snapshot over HTTP.
// Together they make a multi-machine run of the evaluation need no
// filesystem interchange at all: ship the binary, start the daemon,
// point workers at it.

// QueueJobs converts the manifest's deduplicated job set into the
// object store's claimable queue entries, in manifest order — a
// claim's Job index addresses m.Jobs, which is how workers map a
// granted claim back onto the evaluation plan.
func (m *Manifest) QueueJobs() []objstore.QueueJob {
	jobs := make([]objstore.QueueJob, len(m.Jobs))
	for i, j := range m.Jobs {
		jobs[i] = objstore.QueueJob{Key: j.Key, Workload: j.Workload, Label: j.Label}
	}
	return jobs
}

// RunShardServer executes every job of the given shard against the
// HTTP store: results are pulled from and pushed to the daemon the
// moment they exist, so the worker machine needs no cache directory
// and nothing is copied afterwards. The plan-time shard assignment is
// honored exactly as RunShard would — this is the drop-in transport
// swap; see RunWork for the mode that also replaces the sharding.
//
// The client must be namespaced to the manifest (register it, then
// Client.ForManifest): each pushed job is completed in its queue
// without a lease, so the daemon folds it at once.
func (m *Manifest) RunShardServer(shard int, client *objstore.Client, workers int, progress io.Writer) (ShardStats, error) {
	var stats ShardStats
	if client.Fingerprint() == "" {
		return stats, fmt.Errorf("sweep: a server shard needs a client namespaced to the manifest (register it, then Client.ForManifest) to complete its jobs")
	}
	p, err := m.expand()
	if err != nil {
		return stats, err
	}
	if shard < 0 || shard >= m.Shards {
		return stats, fmt.Errorf("sweep: shard %d out of range [0, %d)", shard, m.Shards)
	}
	mine := m.shardJobs(shard)
	stats.Jobs = len(mine)
	worker := fmt.Sprintf("shard-%d", shard)
	exec := func(ji int) (bool, error) {
		hit, err := p.run(m, ji, client)
		if err == nil {
			err = client.Complete(ji, "", worker)
		}
		return hit, err
	}
	stats.Hits, err = m.runJobPool(mine, workers, progress, fmt.Sprintf("shard %d", shard), exec)
	return stats, err
}

// WorkStats reports what a RunWork invocation did.
type WorkStats struct {
	// Claimed is how many queue jobs this worker won; Simulated how
	// many it actually ran; Hits how many were already in the store
	// (pushed by an earlier run, or by a worker that lost its lease
	// after doing the work).
	Claimed, Simulated, Hits int
}

// Claim-poll backoff bounds. A worker that finds every remaining job
// leased elsewhere starts polling at minClaimWait and doubles up to the
// server's suggested retry (capped by maxClaimWait, whatever the server
// says). Sleeping the server's full suggestion immediately serialized
// the queue tail: the last jobs of a sweep finish in a few milliseconds,
// and a worker parked for a fixed 200 ms missed them by an order of
// magnitude (visible as the work-stealing gap in BENCH_sweep.json).
const (
	minClaimWait = time.Millisecond
	maxClaimWait = 2 * time.Second
)

// minHeartbeat floors the lease-renewal interval so a test daemon
// configured with a millisecond lease cannot make workers spin on
// heartbeats.
const minHeartbeat = 25 * time.Millisecond

// heartbeatLease renews the given lease every leaseSeconds/3 until
// stop is closed, so a job that runs longer than the daemon's lease is
// never requeued while its worker is alive and making progress. A
// definitive lease-lost answer ends renewal early — the lease is gone
// and re-asserting it would only spam the daemon; the worker's
// Complete then succeeds anyway iff the result reached the store
// (stale-completion proof). Transient errors (daemon restarting, net
// blips) are ignored: the next tick retries, and the stored-result
// path covers the worst case.
func heartbeatLease(client *objstore.Client, job int, lease, worker string, leaseSeconds float64, stop <-chan struct{}) {
	interval := time.Duration(leaseSeconds / 3 * float64(time.Second))
	if interval < minHeartbeat {
		interval = minHeartbeat
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if err := client.Heartbeat(job, lease, worker); errors.Is(err, objstore.ErrLeaseLost) {
				return
			}
		}
	}
}

// RunWork is the work-stealing worker entry point: claim a job from
// the daemon's queue, simulate it, push the result, complete the
// claim, repeat until the queue reports the evaluation done. Shard
// assignments in the manifest are ignored — scheduling is entirely
// claim-order, so fast machines naturally take more jobs and a worker
// that dies mid-job only delays that job by one lease (the queue
// requeues it on expiry). goroutines (0 = one per CPU) claim
// independently, so a single process also steals work from itself.
//
// The manifest must still expand under this binary (same build as the
// planner): the claim's content-addressed key is verified against the
// manifest before anything runs, so a queue that does not match the
// plan fails loudly instead of simulating the wrong cell.
func (m *Manifest) RunWork(client *objstore.Client, worker string, goroutines int, progress io.Writer) (WorkStats, error) {
	var stats WorkStats
	p, err := m.expand()
	if err != nil {
		return stats, err
	}
	if worker == "" {
		return stats, fmt.Errorf("sweep: a work-stealing worker needs a name (it identifies leases and per-worker stats)")
	}
	if goroutines <= 0 {
		goroutines = runtime.GOMAXPROCS(0)
	}
	if goroutines > len(m.Jobs) {
		goroutines = len(m.Jobs)
	}
	progress = syncProgress(progress)
	var (
		mu                       sync.Mutex
		firstE                   error
		wg                       sync.WaitGroup
		claimed, simulated, hits int
	)
	fail := func(err error) bool {
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstE == nil {
			firstE = err
		}
		return firstE != nil
	}
	for n := 0; n < goroutines; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			backoff := minClaimWait
			for {
				if fail(nil) {
					return
				}
				resp, err := client.ClaimJob(worker)
				if err != nil {
					fail(fmt.Errorf("sweep: worker %s: claim: %w", worker, err))
					return
				}
				switch resp.Status {
				case objstore.ClaimDone:
					return
				case objstore.ClaimWait:
					limit := time.Duration(resp.RetryMS) * time.Millisecond
					if limit <= 0 || limit > maxClaimWait {
						limit = maxClaimWait
					}
					if backoff > limit {
						backoff = limit
					}
					time.Sleep(backoff)
					if backoff < limit {
						backoff *= 2
					}
					continue
				}
				backoff = minClaimWait
				claim := resp.Claim
				if claim.Job < 0 || claim.Job >= len(m.Jobs) || m.Jobs[claim.Job].Key != claim.Key {
					fail(fmt.Errorf("sweep: worker %s: claimed job %d (key %.12s…) does not match the manifest — the daemon was started with a different plan", worker, claim.Job, claim.Key))
					return
				}
				// Renew the lease while the job runs: job time is
				// unbounded (and uncalibrated across hosts), the lease is
				// not. Stopped before Complete — a completed job needs no
				// lease.
				stopHB := make(chan struct{})
				hbDone := make(chan struct{})
				go func() {
					defer close(hbDone)
					heartbeatLease(client, claim.Job, claim.Lease, worker, claim.LeaseSeconds, stopHB)
				}()
				hit, err := p.run(m, claim.Job, client)
				close(stopHB)
				<-hbDone
				if err != nil {
					fail(fmt.Errorf("sweep: worker %s: %s: %w", worker, m.Jobs[claim.Job].desc(), err))
					return
				}
				if err := client.Complete(claim.Job, claim.Lease, worker); err != nil {
					fail(fmt.Errorf("sweep: worker %s: complete %s: %w", worker, m.Jobs[claim.Job].desc(), err))
					return
				}
				mu.Lock()
				claimed++
				if hit {
					hits++
				} else {
					simulated++
				}
				mu.Unlock()
				if progress != nil {
					state := "simulated"
					if hit {
						state = "from store"
					}
					fmt.Fprintf(progress, "  %s: %-30s %s\n", worker, m.Jobs[claim.Job].desc(), state)
				}
			}
		}()
	}
	wg.Wait()
	stats = WorkStats{Claimed: claimed, Simulated: simulated, Hits: hits}
	if firstE != nil {
		return stats, firstE
	}
	return stats, nil
}

// MergeServer returns the daemon's own fold as the merged result set:
// one GET of the manifest's figure snapshot (GET /m/{fp}/figures). The
// daemon's accumulator folds every completed entry with Merge's
// arithmetic, so a complete snapshot is bit-identical to a
// directory-transport merge and to a single-process run. The snapshot
// must cover every job and match this build's plan, or the merge fails
// naming the incomplete or mismatched figures. The client must be
// namespaced to the manifest (Client.ForManifest).
//
// Nothing is pulled, written or folded locally: mergedDir and pack are
// unused by this transport, and no measured costs are imported.
func (m *Manifest) MergeServer(mergedDir string, client *objstore.Client, pack bool, progress io.Writer) (*Results, error) {
	if client.Fingerprint() == "" {
		return nil, fmt.Errorf("sweep: server merge needs a client namespaced to the manifest (Client.ForManifest); an unbound one reads the daemon's default manifest")
	}
	p, err := m.expand()
	if err != nil {
		return nil, err
	}
	data, err := client.FiguresJSON()
	if err != nil {
		return nil, fmt.Errorf("sweep: figure snapshot of manifest %.12s… from %s: %w", client.Fingerprint(), client.Base(), err)
	}
	part, err := DecodePartial(data)
	if err != nil {
		return nil, err
	}
	cov := part.Coverage
	if cov.Jobs != len(m.Jobs) {
		return nil, fmt.Errorf("sweep: the daemon's snapshot covers a %d-job manifest, this one lists %d jobs", cov.Jobs, len(m.Jobs))
	}
	if !cov.Complete() {
		var pending []string
		for _, fc := range cov.Figures {
			if fc.Covered < fc.Cells {
				pending = append(pending, fmt.Sprintf("%s %d/%d cells", fc.Fig, fc.Covered, fc.Cells))
			}
		}
		return nil, fmt.Errorf("sweep: merge incomplete, the daemon has folded %d of %d jobs (%s); run the missing work or shards against this daemon, then merge again",
			cov.Done, cov.Jobs, strings.Join(pending, ", "))
	}
	if err := p.checkSnapshot(part.Results); err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintf(progress, "  merged %d jobs from the figure snapshot of %s\n", cov.Jobs, client.Base())
	}
	return part.Results, nil
}
