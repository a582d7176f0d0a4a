package attack

import "repro/internal/stats"

// RunBatchPerWindow is RunBatch with the direct regime's original
// per-window loop — one rng.Poisson call per refresh window until a
// window's count reaches k — in place of stats.PoissonWindows. It is
// the reference the fast path must match tally for tally; the other
// regimes delegate to RunBatch. Exported for plan_test.go.
func RunBatchPerWindow(s TrialSpec, root uint64, batch, trials int) Tally {
	k := s.Model.RequiredGuesses(s.Rounds)
	g := s.Model.Guesses(s.Rounds)
	lambda := float64(g) / float64(s.Model.RowsPerBank)
	if trials <= 0 || k == 0 || g < k || stats.PoissonTail(k, lambda) < MinDirectProb {
		return s.RunBatch(root, batch, trials)
	}
	rng := stats.NewRNG(BatchSeed(root, batch))
	var t Tally
	for i := 0; i < trials; i++ {
		epochs := uint64(0)
		for {
			epochs++
			if rng.Poisson(lambda) >= k {
				break
			}
		}
		t.addDirect(epochs)
	}
	return t
}
