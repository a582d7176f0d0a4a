// Package stats provides the deterministic randomness and numerical
// machinery used by the reproduction: a seedable SplitMix64 /
// xoshiro256** RNG, log-space binomial and Poisson tail probabilities
// (the §III attack models behind Figs. 6-10 operate on probabilities as
// small as 1e-20), a Zipf sampler for workload row locality (Fig. 14's
// synthetic traces), and the summary statistics (geometric means) the
// §VI performance figures aggregate with.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). Every randomized structure in the
// repository draws from an RNG derived from the experiment seed so all
// results are bit-reproducible.
type RNG struct {
	s [4]uint64
}

// NewRNG returns an RNG seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into the xoshiro state. A zero
	// state would be absorbing, and SplitMix64 guarantees non-zero
	// output for any input sequence.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split returns a new RNG deterministically derived from r's current
// state, advancing r. Use it to hand independent streams to substructures.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// xoshiro is one xoshiro256** step over state held in locals: it
// returns Uint64's output and the advanced state.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, rotl(s3, 45)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = xoshiro(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := r.Uint64()
	hi, _ := mul64(v, uint64(n))
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask+a0*b1)>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from the geometric distribution with success
// probability p: the number of Bernoulli(p) trials up to and including the
// first success, by the inverse-CDF method (one uniform per sample, however
// small p is). Returns at least 1. Panics if p <= 0 or p > 1.
func (r *RNG) Geometric(p float64) float64 {
	if p <= 0 || p > 1 {
		panic("stats: Geometric probability out of (0,1]")
	}
	if p == 1 {
		return 1
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return math.Ceil(math.Log(u) / math.Log1p(-p))
}

// Geom is a geometric sampler with a fixed success probability. It
// precomputes log(1-p) once, which Geometric recomputes on every draw —
// a measurable cost for the trace generators, which sample one gap per
// memory access with the same p for the whole run. Next consumes the
// RNG's stream exactly like Geometric(p) and, because the same
// math.Log1p(-p) value feeds the same division, produces bit-identical
// samples.
type Geom struct {
	rng  *RNG
	logq float64
	one  bool
}

// NewGeom returns a geometric sampler over r with success probability p.
// Panics if p <= 0 or p > 1, mirroring Geometric.
func NewGeom(r *RNG, p float64) *Geom {
	if p <= 0 || p > 1 {
		panic("stats: Geometric probability out of (0,1]")
	}
	return &Geom{rng: r, logq: math.Log1p(-p), one: p == 1}
}

// Next returns the next geometric sample (at least 1).
func (g *Geom) Next() float64 {
	if g.one {
		return 1
	}
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	return math.Ceil(math.Log(u) / g.logq)
}

// Poisson returns a sample from the Poisson distribution with mean lambda.
// For small lambda it uses Knuth's product method; for large lambda a
// normal approximation with continuity correction (adequate for the
// workload models that use it).
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := r.Normal()*math.Sqrt(lambda) + lambda
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// PoissonWindows counts independent Poisson(lambda) windows up to and
// including the first whose count reaches k — the per-window loop of
// the attack Monte-Carlo's direct regime, which runs up to ~500k
// windows per trial. WindowsUntil consumes the RNG's stream exactly
// like repeated Poisson(lambda) calls and returns the identical count,
// so callers get the same bits as the loop, only faster.
//
// The speed comes from Knuth's method itself: a window's count is 0
// exactly when its first uniform is at most l = exp(-lambda), which for
// the attack's lambda is most windows. l is precomputed once, and
// because Float64 is m·2^-53 for the draw's top 53 bits m, the test
// Float64() <= l is the integer test m <= ⌊l·2^53⌋ (exact: l is a
// normal float64 for lambda < 30, and the scale is a power of two).
// Those zero windows run in a loop that keeps the xoshiro256** state
// in registers; the first draw above the threshold finishes Knuth's
// product loop from p = m·2^-53, the same float Poisson starts from.
type PoissonWindows struct {
	rng    *RNG
	lambda float64
	l      float64 // exp(-lambda), Knuth's stopping bound
	t      uint64  // ⌊l·2^53⌋: top 53 bits m <= t ⇔ Float64() <= l
}

// NewPoissonWindows returns a window sampler over r with per-window
// mean lambda. Panics unless lambda > 0: with lambda <= 0 no window
// ever has a positive count.
func NewPoissonWindows(r *RNG, lambda float64) *PoissonWindows {
	if !(lambda > 0) {
		panic("stats: PoissonWindows mean must be positive")
	}
	w := &PoissonWindows{rng: r, lambda: lambda}
	if lambda < 30 {
		w.l = math.Exp(-lambda)
		w.t = uint64(w.l * (1 << 53))
	}
	return w
}

// WindowsUntil returns the number of windows drawn up to and including
// the first with a Poisson count >= k (at least 1), leaving the RNG
// exactly where that many Poisson(lambda) calls would.
func (w *PoissonWindows) WindowsUntil(k int) uint64 {
	n := uint64(0)
	if w.lambda >= 30 || k <= 0 {
		// Poisson's normal approximation, or a first window that
		// always succeeds: nothing to fast-path.
		for {
			n++
			if w.rng.Poisson(w.lambda) >= k {
				return n
			}
		}
	}
	s0, s1, s2, s3 := w.rng.s[0], w.rng.s[1], w.rng.s[2], w.rng.s[3]
	for {
		n++
		var m uint64
		m, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		if m>>11 <= w.t {
			continue // this window's count is 0
		}
		count, p := 1, float64(m>>11)*0x1p-53
		for {
			m, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			if p *= float64(m>>11) * 0x1p-53; p <= w.l {
				break
			}
			count++
		}
		if count >= k {
			w.rng.s = [4]uint64{s0, s1, s2, s3}
			return n
		}
	}
}

// Normal returns a standard normal sample (Box-Muller).
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
