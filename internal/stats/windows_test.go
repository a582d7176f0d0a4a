package stats

import (
	"math"
	"testing"
)

// windowsUntilRef is the per-window loop PoissonWindows replaces — one
// Poisson(lambda) call per window until a window's count reaches k —
// kept as the oracle the sampler must match draw for draw.
func windowsUntilRef(r *RNG, lambda float64, k int) uint64 {
	n := uint64(0)
	for {
		n++
		if r.Poisson(lambda) >= k {
			return n
		}
	}
}

// checkWindowsMatch runs `calls` consecutive WindowsUntil(k) calls on a
// sampler and the reference loop over two RNGs seeded alike, and fails
// unless every window count matches and both RNGs are left on the same
// stream (the next 4 draws agree).
func checkWindowsMatch(t *testing.T, seed uint64, lambda float64, k, calls int) {
	t.Helper()
	ref, fast := NewRNG(seed), NewRNG(seed)
	w := NewPoissonWindows(fast, lambda)
	for c := 0; c < calls; c++ {
		want := windowsUntilRef(ref, lambda, k)
		if got := w.WindowsUntil(k); got != want {
			t.Fatalf("seed %d lambda %g k %d call %d: WindowsUntil = %d, per-window loop = %d",
				seed, lambda, k, c, got, want)
		}
	}
	for i := 0; i < 4; i++ {
		if a, b := ref.Uint64(), fast.Uint64(); a != b {
			t.Fatalf("seed %d lambda %g k %d: RNG streams diverge at draw %d after the windows (%#x vs %#x)",
				seed, lambda, k, i, b, a)
		}
	}
}

// TestPoissonWindowsMatchesPerWindowLoop is the differential oracle:
// over a lambda grid spanning tiny means, the attack Monte-Carlo's
// direct-regime means (the report.PlanSecurity cells run at lambda
// 2.2e-4 and 2.3e-3 to 3.3e-3), Knuth's range up to just below 30 and
// the normal-approximation fallback from 30 on, and k from 1 to 8, the
// sampler returns the loop's window count and leaves the RNG where the
// loop does. Cells whose expected window count exceeds 1e6 are skipped
// (the loop is the slow side); cheaper cells run more seeds.
func TestPoissonWindowsMatchesPerWindowLoop(t *testing.T) {
	lambdas := []float64{1e-5, 2.21252e-4, 2.25067e-3, 3.34167e-3, 0.05, 0.5, 1, 3, 10,
		29.999999, math.Nextafter(30, 0), 30, 42.5}
	cells := 0
	for _, lambda := range lambdas {
		for k := 1; k <= 8; k++ {
			p := PoissonTail(k, lambda)
			if p < 1e-6 {
				continue
			}
			cells++
			seeds := int(3e5 * p)
			seeds = max(2, min(seeds, 16))
			for s := 0; s < seeds; s++ {
				checkWindowsMatch(t, SubSeed(0x5eed, uint64(s), uint64(k)), lambda, k, 2)
			}
		}
	}
	if cells < 40 {
		t.Fatalf("only %d (lambda, k) cells exercised; the grid lost coverage", cells)
	}
}

// lambdaWithBound returns a lambda whose Knuth bound exp(-lambda) is
// exactly l, stepping lambda one ulp at a time from -log(l); ok is
// false if no float64 lambda in (0, 30) lands on l.
func lambdaWithBound(l float64) (lambda float64, ok bool) {
	lambda = -math.Log(l)
	for i := 0; i < 1<<16 && lambda > 0 && lambda < 30; i++ {
		switch e := math.Exp(-lambda); {
		case e == l:
			return lambda, true
		case e < l:
			lambda = math.Nextafter(lambda, 0)
		default:
			lambda = math.Nextafter(lambda, math.Inf(1))
		}
	}
	return 0, false
}

// edgeLambdas returns hand-built means that put a seed's first windows
// on Knuth's stopping test `p <= exp(-lambda)` with equality: the first
// draw's top 53 bits m equal the integer threshold exactly (a zero
// window by `<=`), the threshold one below m (the product loop starts),
// and the bound equal to the product of the first two draws (a count of
// exactly 1, decided by the last bit of the product).
func edgeLambdas(seed uint64) []float64 {
	r := NewRNG(seed)
	m1, m2 := r.Uint64()>>11, r.Uint64()>>11
	var out []float64
	for _, l := range []float64{
		float64(m1) * 0x1p-53,
		float64(m1-1) * 0x1p-53,
		float64(m1) * 0x1p-53 * (float64(m2) * 0x1p-53),
	} {
		if lambda, ok := lambdaWithBound(l); ok {
			out = append(out, lambda)
		}
	}
	return out
}

// The threshold edge: the sampler's integer test must agree with
// Knuth's float test exactly where they are closest to disagreeing
// (see edgeLambdas), including after the edge window.
func TestPoissonWindowsThresholdEdge(t *testing.T) {
	hits := 0
	for seed := uint64(1); seed <= 16; seed++ {
		m := NewRNG(seed).Uint64() >> 11
		for _, lambda := range edgeLambdas(seed) {
			hits++
			if l := math.Exp(-lambda); float64(m)*0x1p-53 == l {
				if w := NewPoissonWindows(NewRNG(seed), lambda); w.t != m {
					t.Fatalf("seed %d lambda %g: threshold %d, want the first draw's %d", seed, lambda, w.t, m)
				}
				if n := NewRNG(seed).Poisson(lambda); n != 0 {
					t.Fatalf("seed %d lambda %g: first window count %d, want 0 (draw == bound)", seed, lambda, n)
				}
			}
			for k := 1; k <= 3; k++ {
				if PoissonTail(k, lambda) > 1e-5 {
					checkWindowsMatch(t, seed, lambda, k, 3)
				}
			}
		}
	}
	if hits < 24 {
		t.Fatalf("only %d edge means constructed over 16 seeds; the edge cases lost coverage", hits)
	}
}

// Degenerate inputs: k <= 0 succeeds in the first window (after one
// Poisson draw's worth of stream), and a non-positive mean panics.
func TestPoissonWindowsDegenerate(t *testing.T) {
	checkWindowsMatch(t, 3, 0.5, 0, 3)
	checkWindowsMatch(t, 3, 45, -1, 3)
	for _, lambda := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPoissonWindows(%g) did not panic", lambda)
				}
			}()
			NewPoissonWindows(NewRNG(1), lambda)
		}()
	}
}

// FuzzPoissonWindows compares the sampler with the per-window loop on
// arbitrary seeds, means and k in 1..8. Inputs whose expected window
// count exceeds 1e5 are skipped so every execution stays fast. The seed
// corpus sits on the threshold edge (see TestPoissonWindowsThresholdEdge),
// at the direct-regime means, and on both sides of the lambda = 30
// fallback.
func FuzzPoissonWindows(f *testing.F) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, lambda := range edgeLambdas(seed) {
			f.Add(seed, lambda, uint8(0))
			f.Add(seed, lambda, uint8(1))
		}
	}
	f.Add(uint64(7), 2.21252e-4, uint8(0))
	f.Add(uint64(7), 3.34167e-3, uint8(1))
	f.Add(uint64(9), 0.5, uint8(3))
	f.Add(uint64(9), math.Nextafter(30, 0), uint8(7))
	f.Add(uint64(9), 30.0, uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, lambda float64, k8 uint8) {
		k := int(k8%8) + 1
		if !(lambda > 0 && lambda < 1e6) || PoissonTail(k, lambda) < 1e-5 {
			return
		}
		checkWindowsMatch(t, seed, lambda, k, 2)
	})
}
