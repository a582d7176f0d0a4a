package attack

import (
	"math"

	"repro/internal/stats"
)

// MonteCarloResult summarizes a Monte-Carlo estimate of the attack.
type MonteCarloResult struct {
	Iterations int
	MeanTimeNS float64
	MeanEpochs float64
	// StdErrTimeNS is the standard error of MeanTimeNS (0 when fewer
	// than two trials contributed, or for the deterministic latent-only
	// regime where every trial takes exactly one window).
	StdErrTimeNS float64
	// Tail reports that the estimate came from the closed-form tail
	// sampler (per-window success probability below MinDirectProb)
	// rather than direct event-by-event simulation.
	Tail bool
	// Skipped reports that the attack is infeasible at these parameters
	// (fewer guesses per window than required hits): the success
	// probability is exactly zero and MeanTimeNS is +Inf.
	Skipped bool
}

// TrialSpec identifies one Monte-Carlo experiment cell: the attack
// model and the biasing round count. It is plain comparable data — the
// identity trial batches are content-addressed by in a distributed
// sweep (simcache.MCKey covers the spec, the root seed, the batch
// index, and the batch size).
type TrialSpec struct {
	Model  Model `json:"model"`
	Rounds int   `json:"rounds"`
}

// DefaultBatch is the default trials-per-batch granularity of a
// distributed Monte-Carlo run: small enough that work-stealing balances
// cells across workers, large enough that per-batch store overhead
// stays negligible.
const DefaultBatch = 250

// DefaultTrials is the default per-cell trial count of evaluation-wide
// security planning (rowswap-sweep plan scales it with -trials).
const DefaultTrials = 1000

// BatchSeed derives the RNG seed of batch `batch` in the trial stream
// rooted at root: stats.SubSeed(root, batch). See the package comment
// for the full seeding scheme.
func BatchSeed(root uint64, batch int) uint64 {
	return stats.SubSeed(root, uint64(batch))
}

// RunBatch runs one seeded batch of `trials` trials — batch index
// `batch` of the stream rooted at root — and returns its tally. The
// tally is a pure function of (spec, root, batch, trials): the batch
// RNG is derived via BatchSeed and threaded through the trials
// sequentially, so re-running a batch anywhere reproduces it bit for
// bit (pinned by the golden fixture in tally_test.go).
//
// Each trial mirrors the paper's "bins and buckets" artifact: every
// refresh window the attacker performs its biasing rounds and G random
// guesses; the number of guesses landing on the aggressor's original
// location is Poisson-thinned (G << R), and the attack succeeds when k
// land within one window. A trial's outcome is the number of windows
// (epochs) until success. When the per-window success probability p =
// P[Poisson(G/R) >= k] is at least MinDirectProb the windows are
// simulated event by event; below it the trial draws epochs ~
// Geometric(p) in closed form, carried in log space (p itself may be
// far below the smallest float64), and records quantized log(epochs).
//
// The direct regime draws one Poisson(G/R) count per window through
// stats.PoissonWindows, which consumes the batch RNG exactly like a
// loop of rng.Poisson calls and returns the same window count: windows
// whose count is 0 (nearly all of them at the attack's G/R ~ 1e-3)
// cost one integer compare on a register-resident xoshiro step, so a
// 500k-window trial takes about a millisecond, and every tally is the
// one the per-window loop produces (pinned by the golden fixture and
// the per-window reference in montecarlo_test.go).
func (s TrialSpec) RunBatch(root uint64, batch, trials int) Tally {
	var t Tally
	if trials <= 0 {
		return t
	}
	k := s.Model.RequiredGuesses(s.Rounds)
	if k == 0 {
		// Latent activations alone succeed in the first window: every
		// trial takes exactly one epoch, no randomness involved.
		for i := 0; i < trials; i++ {
			t.addDirect(1)
		}
		return t
	}
	g := s.Model.Guesses(s.Rounds)
	if g < k {
		t.Trials = trials
		t.Skipped = true
		return t
	}
	lambda := float64(g) / float64(s.Model.RowsPerBank)
	rng := stats.NewRNG(BatchSeed(root, batch))
	if p := stats.PoissonTail(k, lambda); p >= MinDirectProb {
		pw := stats.NewPoissonWindows(rng, lambda)
		for i := 0; i < trials; i++ {
			t.addDirect(pw.WindowsUntil(k))
		}
		return t
	}
	// Tail regime: epochs-until-success is exactly Geometric(p) for the
	// per-window Bernoulli process the direct loop simulates, so sample
	// it in closed form. log(epochs) = log(-log u) - log(-log1p(-p)),
	// with the denominator falling back to log p itself once p
	// underflows float64 (-log1p(-p) = p to machine precision there).
	logp := stats.LogPoissonTail(k, lambda)
	logD := logp
	if p := math.Exp(logp); p > 0 {
		logD = math.Log(-math.Log1p(-p))
	}
	hist := make(map[int32]uint64)
	for i := 0; i < trials; i++ {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		logE := math.Log(-math.Log(u)) - logD
		if logE < 0 {
			logE = 0 // a trial takes at least one epoch
		}
		hist[int32(math.Floor(logE/TailQuantum))]++
	}
	t.Trials = trials
	t.Tail = trials
	t.TailBuckets = sortBuckets(hist)
	return t
}

// RunTally is the single-process oracle of a distributed Monte-Carlo
// run: it executes every batch of the (root, trials, batchSize) stream
// sequentially in this process and merges the tallies. A distributed
// run of the same stream — batches sharded across worker processes,
// merged in any completion order — produces the bit-identical tally,
// because batches are seeded independently (BatchSeed) and Merge is
// exact (see Tally).
func (s TrialSpec) RunTally(root uint64, trials, batchSize int) Tally {
	if batchSize <= 0 {
		batchSize = DefaultBatch
	}
	var t Tally
	for b := 0; b*batchSize < trials; b++ {
		n := batchSize
		if rem := trials - b*batchSize; n > rem {
			n = rem
		}
		t = t.Merge(s.RunBatch(root, b, n))
	}
	return t
}

// Run executes the full trial stream in-process and folds it into a
// MonteCarloResult.
func (s TrialSpec) Run(root uint64, trials, batchSize int) MonteCarloResult {
	return s.RunTally(root, trials, batchSize).Result(s.Model)
}

// MonteCarlo validates the analytical model by Monte-Carlo simulation
// at the given parameters: `trials` seeded trials rooted at seed, run
// as DefaultBatch-sized sub-streams (so the result is bit-identical to
// a distributed run of the same stream).
func MonteCarlo(m Model, rounds, trials int, seed uint64) MonteCarloResult {
	return TrialSpec{Model: m, Rounds: rounds}.Run(seed, trials, DefaultBatch)
}
