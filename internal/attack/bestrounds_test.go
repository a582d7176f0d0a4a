package attack

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/config"
)

// bestRoundsScan is BestRounds as the exhaustive N-by-N scan over
// 0 .. max feasible N: the oracle the plateau search must match, round
// count and time bits alike.
func bestRoundsScan(m Model) (rounds int, timeNS float64) {
	if m.Untargeted || m.Defense == DefenseSRS {
		return 0, m.TimeToBreakNS(0)
	}
	best, bestN := math.Inf(1), 0
	maxN := int(m.TActual() / (float64(m.TS()-1)*m.actPeriod() + m.TReswapNS()))
	for n := 0; n <= maxN; n++ {
		if t := m.TimeToBreakNS(n); t < best {
			best, bestN = t, n
		}
	}
	return bestN, best
}

// checkBestRounds fails t unless BestRounds returns the scan's round
// count and the same time bits on m.
func checkBestRounds(t *testing.T, m Model) {
	t.Helper()
	n, tt := m.BestRounds()
	wn, wt := bestRoundsScan(m)
	if n != wn || math.Float64bits(tt) != math.Float64bits(wt) {
		t.Fatalf("%+v: BestRounds = (%d, %v), exhaustive scan = (%d, %v)", m, n, tt, wn, wt)
	}
}

// TestBestRoundsMatchesScanGrid compares BestRounds with the exhaustive
// scan on a seeded sample of a grid over T_RH, swap rate, ACT period
// (closed and open page), attacked banks, DDR4/DDR5 timing and the
// latent-ACTs-per-round override, for both defenses. Every combination
// of the discrete axes is kept; only the T_RH axis is subsampled.
func TestBestRoundsMatchesScanGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	models := 0
	for rate := 2; rate <= 12; rate++ {
		for _, act := range []float64{0, 60} {
			for _, banks := range []int{1, 16} {
				for _, ddr5 := range []bool{false, true} {
					for _, latent := range []float64{0, 1, 2.5} {
						for _, def := range []Defense{DefenseRRS, DefenseSRS} {
							for i := 0; i < 6; i++ {
								m := NewJuggernautRRS(500+rng.Intn(9501), rate)
								m.Defense = def
								m.ACTPeriodNS = act
								m.Banks = banks
								m.LatentPerRound = latent
								if ddr5 {
									m.Timing = config.DDR5()
								}
								checkBestRounds(t, m)
								models++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d models", models)
}

// FuzzBestRoundsMatchesScan compares BestRounds with the exhaustive
// scan on arbitrary model parameters. Inputs outside the ranges the
// model is meant for are wrapped into them, keeping T_S >= 1.
func FuzzBestRoundsMatchesScan(f *testing.F) {
	f.Add(4800, 6, 0.0, 1, 0.0, false)
	f.Add(1200, 6, 0.0, 1, 0.0, false)
	f.Add(4800, 6, 60.0, 1, 0.0, false)
	f.Add(4800, 6, 0.0, 16, 0.0, false)
	f.Add(3300, 10, 60.0, 1, 0.0, false)
	f.Add(3100, 10, 0.0, 1, 0.0, true)
	f.Add(10000, 2, 0.0, 1, 2.5, true)
	f.Add(7, 7, 0.0, 1, 0.0, false) // T_S = 1
	// Infeasible at every N across two k-plateaus: the +Inf tie must
	// still go to N = 0.
	f.Add(14500, 3, 200.0, 16, 0.0, false)
	f.Fuzz(func(t *testing.T, trh, rate int, actPeriod float64, banks int, latent float64, ddr5 bool) {
		wrap := func(x, lo, hi int) int {
			if x < lo || x > hi {
				return lo + int(uint(x)%uint(hi-lo+1))
			}
			return x
		}
		clamp := func(x, hi float64) float64 {
			if !(x >= 0 && x <= hi) { // NaN included
				return 0
			}
			return x
		}
		rate = wrap(rate, 1, 64)
		m := NewJuggernautRRS(wrap(trh, rate, 20000), rate) // T_S >= 1
		m.ACTPeriodNS = clamp(actPeriod, 200)
		m.Banks = wrap(banks, 1, 32)
		m.LatentPerRound = clamp(latent, 8)
		if ddr5 {
			m.Timing = config.DDR5()
		}
		checkBestRounds(t, m)
	})
}
