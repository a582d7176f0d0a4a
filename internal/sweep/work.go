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
	"repro/internal/simcache"
)

// This file is the networked side of the sweep: work-stealing workers
// that claim jobs from a rowswap-cached daemon's queue (internal/
// objstore) and push and pull results through its store, and a merge
// transport that reads the daemon's already-folded figure snapshot
// over HTTP. Together they make a multi-machine run of the evaluation
// need no filesystem interchange at all: ship the binary, start the
// daemon, point workers at it.

// WorkStats reports what a RunWork invocation did. Every claimed job
// counts in exactly one of Simulated, Derived, Resumed and Hits.
type WorkStats struct {
	// Claimed is how many queue jobs this worker won. Simulated is how
	// many it ran in full: simulations and trial batches. Derived and
	// Resumed count the mitigated cells built from their baseline, as
	// simcache.Resolver counts them. Hits is how many were already in
	// the store (pushed by an earlier run, or by a worker that lost its
	// lease after doing the work) or already resolved by this call.
	Claimed, Simulated, Derived, Resumed, Hits int
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
// claim, repeat until the queue reports the evaluation done.
// Scheduling is entirely claim-order, so fast machines naturally take
// more jobs and a worker
// that dies mid-job only delays that job by one lease (the queue
// requeues it on expiry). goroutines (0 = one per CPU) claim
// independently, so a single process also steals work from itself.
//
// The queue hands out jobs in manifest order, every baseline first, so
// a mitigated cell is claimed after its baseline. The call's goroutines
// share one simcache.Resolver, held until RunWork returns: a cell
// whose baseline this process resolved is derived or resumed from it,
// and one whose baseline is still running here waits for it (the
// heartbeat keeps its lease alive meanwhile). A baseline another worker
// holds is read from the store without a tape, or resolved here too
// when the store lacks it.
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
		mu       sync.Mutex
		firstE   error
		wg       sync.WaitGroup
		resolver simcache.Resolver
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
				how, err := p.run(m, claim.Job, client, &resolver)
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
				stats.Claimed++
				switch how {
				case simcache.Simulated:
					stats.Simulated++
				case simcache.Derived:
					stats.Derived++
				case simcache.Resumed:
					stats.Resumed++
				default:
					stats.Hits++
				}
				mu.Unlock()
				if progress != nil {
					fmt.Fprintf(progress, "  %s: %-30s %s\n", worker, m.Jobs[claim.Job].desc(), how)
				}
			}
		}()
	}
	wg.Wait()
	return stats, firstE
}

// MergeServer returns the daemon's own fold as the merged result set:
// one GET of the manifest's figure snapshot (GET /m/{fp}/figures). The
// daemon's accumulator folds every completed entry with Merge's
// arithmetic, so a complete snapshot is bit-identical to Merge's
// re-fold of the daemon's store and to a single-process run. The snapshot
// must cover every job and match this build's plan, or the merge fails
// naming the incomplete or mismatched figures. The client must be
// namespaced to the manifest (Client.ForManifest).
//
// Nothing is pulled, written or folded locally. mergedDir and pack are
// ignored; they remain for existing callers.
func (m *Manifest) MergeServer(mergedDir string, client *objstore.Client, pack bool, progress io.Writer) (*Results, error) {
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
		return nil, fmt.Errorf("sweep: merge incomplete, the daemon has folded %d of %d jobs (%s); run workers against this daemon until the queue drains, then merge again",
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
