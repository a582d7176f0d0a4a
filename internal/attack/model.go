// Package attack implements the security analysis of the paper: the
// analytical model of the Juggernaut attack pattern against RRS and SRS
// (§III-B, Equations 1-10), the untargeted random-guess attack RRS was
// originally evaluated with (Fig. 1a), the event-driven Monte-Carlo
// validation (Fig. 6), and the outlier-appearance model that justifies
// Scale-SRS's reduced swap rate (§V-B, Fig. 13).
//
// All probabilities are computed in log space (see internal/stats), so
// time-to-break values up to 10^13 days (Fig. 10's y-axis) are exact
// rather than underflowed.
//
// # Monte-Carlo seeding scheme
//
// The Monte-Carlo engine is batchable for distribution: an experiment
// cell (TrialSpec) runs `trials` trials as a sequence of fixed-size
// batches, and each batch is an independent, relocatable unit of work.
// Randomness is derived strictly top-down — root seed → per-batch
// sub-stream — with no RNG state shared between batches:
//
//	batch seed b = BatchSeed(root, b) = stats.SubSeed(root, b)
//	batch RNG    = stats.NewRNG(batch seed), threaded sequentially
//	               through the batch's trials
//
// (A distributed sweep adds one more derivation level: the manifest's
// root seed spawns a per-cell root via stats.SubSeed(manifestSeed,
// cellIndex), and batches derive from the cell root.) Because a batch's
// tally is a pure function of (spec, root, batch index, batch size),
// and tallies merge exactly (see Tally), running the batches in one
// process or sharding them across machines in any completion order
// yields bit-identical results. The per-(seed, batch) tally bytes are
// pinned by a golden fixture, so any refactor that silently reorders
// RNG draws fails loudly.
package attack

import (
	"math"
	"sort"

	"repro/internal/config"
	"repro/internal/stats"
)

// Defense identifies the mitigation under attack.
type Defense int

// The two row-swap defenses analysed.
const (
	DefenseRRS Defense = iota // unswap-swap pairs: L = 1.5 latent ACTs/round
	DefenseSRS                // swap-only: no latent accumulation
)

// String implements fmt.Stringer.
func (d Defense) String() string {
	if d == DefenseSRS {
		return "srs"
	}
	return "rrs"
}

// Model holds the parameters of Table II plus the system constants the
// equations draw on.
type Model struct {
	Timing      config.Timing
	Defense     Defense
	TRH         int // Row Hammer threshold
	SwapRate    int // T_RH / T_S
	RowsPerBank int // R

	// ACTPeriodNS is the effective time between attacker activations
	// (tRC = 45 ns under a closed-page policy; larger under open-page,
	// §VIII-3). Zero means tRC.
	ACTPeriodNS float64

	// LatentPerRound overrides L, the latent activations the aggressor's
	// original location gains per unswap-swap round (1.5 for RRS with
	// swap-buffer optimization, per footnote 2). Zero means the defense
	// default (RRS: 1.5, SRS: 0).
	LatentPerRound float64

	// Untargeted selects the attack RRS was originally analysed with:
	// the attacker hammers random rows hoping *any* location accumulates
	// T_RH activations (birthday paradox), instead of biasing one target
	// with latent activations.
	Untargeted bool

	// Banks under simultaneous attack (1 = single-bank, the paper's
	// focus; >1 models §III-C's multi-bank analysis via time division).
	Banks int
}

// NewJuggernautRRS returns the targeted Juggernaut model against RRS at
// the paper's default parameters (DDR4, 128K rows/bank).
func NewJuggernautRRS(trh, swapRate int) Model {
	return Model{
		Timing:      config.DDR4(),
		Defense:     DefenseRRS,
		TRH:         trh,
		SwapRate:    swapRate,
		RowsPerBank: 128 * 1024,
		Banks:       1,
	}
}

// NewJuggernautSRS returns the Juggernaut model against SRS (§IV-E):
// identical attacker, but swap-only indirection yields no latent
// accumulation.
func NewJuggernautSRS(trh, swapRate int) Model {
	m := NewJuggernautRRS(trh, swapRate)
	m.Defense = DefenseSRS
	return m
}

// NewRandomGuessRRS returns the untargeted birthday-paradox attack
// against RRS that Fig. 1a studies.
func NewRandomGuessRRS(trh, swapRate int) Model {
	m := NewJuggernautRRS(trh, swapRate)
	m.Untargeted = true
	return m
}

// TS returns the swap threshold T_S.
func (m Model) TS() int { return m.TRH / m.SwapRate }

// actPeriod returns the effective seconds-per-activation in ns.
func (m Model) actPeriod() float64 {
	if m.ACTPeriodNS > 0 {
		return m.ACTPeriodNS
	}
	return m.Timing.TRC
}

// latentPerRound returns L.
func (m Model) latentPerRound() float64 {
	if m.LatentPerRound > 0 {
		return m.LatentPerRound
	}
	if m.Defense == DefenseSRS {
		return 0
	}
	return 1.5
}

func (m Model) banks() int {
	if m.Banks < 1 {
		return 1
	}
	return m.Banks
}

// TSwapNS returns t_swap (2.7 us) and TReswapNS t_reswap (5.4 us).
func (m Model) TSwapNS() float64   { return 2.7 * config.Microsecond }
func (m Model) TReswapNS() float64 { return 5.4 * config.Microsecond }

// TActual returns Equation 4: the usable attack time per refresh window
// after refresh penalties, divided across the attacked banks.
func (m Model) TActual() float64 {
	t := m.Timing.RefreshWindow - m.Timing.TRFC*float64(m.Timing.RefreshOpsPerWindow())
	return t / float64(m.banks())
}

// AggressorACTs returns Equation 1 (or 11 for SRS): the activations
// accumulated at the aggressor's original location after the initial
// 2*T_S activations and N unswap-swap rounds of L latent activations.
func (m Model) AggressorACTs(rounds int) float64 {
	return float64(2*m.TS()) + m.latentPerRound()*float64(rounds)
}

// RequiredGuesses returns k of Equation 3: how many times a random guess
// must land on the aggressor's original location to push it past T_RH.
// Zero means the latent activations alone cross the threshold (the
// "break in one refresh period" regime of Fig. 7 at low T_RH).
func (m Model) RequiredGuesses(rounds int) int {
	if m.Untargeted {
		// Birthday attack: a location needs T_RH / T_S selections.
		return (m.TRH + m.TS() - 1) / m.TS()
	}
	left := float64(m.TRH) - m.AggressorACTs(rounds)
	if left <= 0 {
		return 0
	}
	return int(math.Ceil(left / float64(m.TS())))
}

// RoundTime returns t_aggr of Equation 5: the time consumed by N attack
// rounds, each being T_S-1 activations plus one unswap-swap.
func (m Model) RoundTime(rounds int) float64 {
	perRound := float64(m.TS()-1)*m.actPeriod() + m.TReswapNS()
	return perRound * float64(rounds)
}

// Guesses returns G of Equation 7: how many random rows the attacker can
// hammer (T_S activations each, one swap) in the time left after the
// biasing rounds (Equation 6). Zero if the rounds exhaust the window.
func (m Model) Guesses(rounds int) int {
	tLeft := m.TActual()
	if !m.Untargeted {
		tLeft -= m.RoundTime(rounds)
		// Initial 2*T_S-1 activations and the first swap (Equation 6).
		tLeft -= m.actPeriod()*float64(2*m.TS()-1) + m.TSwapNS()
	}
	if tLeft <= 0 {
		return 0
	}
	perGuess := m.actPeriod()*float64(m.TS()-1) + m.TSwapNS()
	return int(tLeft / perGuess)
}

// EpochSuccessProb returns the probability that one refresh window's
// guesses succeed: Equation 8 for a single target, or the union over all
// R rows (and all attacked banks) for the untargeted attack.
func (m Model) EpochSuccessProb(rounds int) float64 {
	k := m.RequiredGuesses(rounds)
	if k == 0 {
		return 1 // latent activations alone break the defense
	}
	g := m.Guesses(rounds)
	if g < k {
		return 0
	}
	p := 1.0 / float64(m.RowsPerBank)
	pk := stats.BinomialTail(g, k, p)
	if m.Untargeted {
		// P[any of R rows collects k selections]; independent-bin
		// approximation (exact enough at these densities).
		logMiss := float64(m.RowsPerBank) * math.Log1p(-pk)
		pk = -math.Expm1(logMiss)
	}
	if b := m.banks(); b > 1 {
		logMiss := float64(b) * math.Log1p(-pk)
		pk = -math.Expm1(logMiss)
	}
	return pk
}

// TimeToBreakNS returns the expected attack time (Equations 9-10) for a
// given number of biasing rounds: refresh window / per-epoch success
// probability. +Inf when the attack is infeasible at this N.
func (m Model) TimeToBreakNS(rounds int) float64 {
	p := m.EpochSuccessProb(rounds)
	if p <= 0 {
		return math.Inf(1)
	}
	return m.Timing.RefreshWindow / p
}

// TimeToBreakDays converts TimeToBreakNS to days.
func (m Model) TimeToBreakDays(rounds int) float64 {
	return m.TimeToBreakNS(rounds) / config.Day
}

// BestRounds returns the round count N minimizing time-to-break,
// together with that time in ns. This is the "determining the attack
// rounds" optimization of §III-C: pick N to minimize k while keeping G
// as large as possible.
//
// k (RequiredGuesses) is non-increasing in N and falls in steps, while
// G (Guesses) only shrinks as N grows. Within a plateau of constant k
// the per-window success probability therefore never rises, so the
// time-to-break never falls, and the optimum is always the first N of
// some plateau. BestRounds evaluates TimeToBreakNS only at plateau
// starts, found by binary search over the cheap RequiredGuesses, and
// keeps the strict comparison so ties go to the smallest N: the result
// is the exhaustive scan's over 0..max feasible N, bit for bit.
func (m Model) BestRounds() (rounds int, timeNS float64) {
	if m.Untargeted || m.Defense == DefenseSRS {
		// Rounds cannot help: no latent accumulation to exploit.
		return 0, m.TimeToBreakNS(0)
	}
	best, bestN := math.Inf(1), 0
	maxN := int(m.TActual() / (float64(m.TS()-1)*m.actPeriod() + m.TReswapNS()))
	for n := 0; n <= maxN; {
		if t := m.TimeToBreakNS(n); t < best {
			best, bestN = t, n
		}
		// Next plateau start: the first N' > n with a smaller k (none
		// once k is 0: every later N then ties at one window).
		k := m.RequiredGuesses(n)
		n += 1 + sort.Search(maxN-n, func(i int) bool { return m.RequiredGuesses(n+1+i) < k })
	}
	return bestN, best
}
