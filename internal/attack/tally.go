package attack

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/stats"
)

// Tally is the mergeable outcome envelope of a seeded Monte-Carlo trial
// batch — the unit of result a distributed security sweep stores and
// merges. Its design constraint is bit-exact order-independence: Merge
// must be associative and commutative down to the last bit, so that
// trials sharded across worker processes fold to the identical
// MonteCarloResult no matter how batches complete or in which order the
// merge tree combines them. Every accumulator is therefore an exact
// integer:
//
//   - Directly simulated trials (per-window success probability p >=
//     MinDirectProb) record integer epoch counts, summed in 128 bits
//     (SumHi:SumLo, SqHi:SqLo) so no count is ever rounded.
//   - Tail-regime trials (p < MinDirectProb, where direct event
//     simulation is infeasible — attack times out to 10^13 days) record
//     each trial's log(epochs), quantized to TailQuantum-wide buckets
//     with integer counts. The values live in log space (epochs up to
//     e^700 never overflow) while merging stays integer addition of
//     bucket counts. The quantization granularity (~0.1% relative) is
//     far below Monte-Carlo sampling noise at any trial count.
//
// Folding a tally into float64 statistics happens exactly once, in
// Result, over the canonical (sorted-bucket) representation — so the
// floats are a deterministic function of the merged integers.
type Tally struct {
	// Trials is the number of trials the tally accounts for.
	Trials int `json:"trials"`
	// Skipped marks an infeasible cell (fewer guesses than required
	// hits: success probability exactly 0). Trials are counted but no
	// outcome exists.
	Skipped bool `json:"skipped,omitempty"`

	// Direct-regime accumulators: exact 128-bit sums of per-trial epoch
	// counts and their squares, plus the maximum.
	Direct    int    `json:"direct,omitempty"`
	SumLo     uint64 `json:"sum_lo,omitempty"`
	SumHi     uint64 `json:"sum_hi,omitempty"`
	SqLo      uint64 `json:"sq_lo,omitempty"`
	SqHi      uint64 `json:"sq_hi,omitempty"`
	MaxEpochs uint64 `json:"max_epochs,omitempty"`

	// Tail-regime accumulators: an integer histogram over quantized
	// log(epochs), sorted by bucket.
	Tail        int          `json:"tail,omitempty"`
	TailBuckets []TailBucket `json:"tail_buckets,omitempty"`
}

// TailBucket is one bin of the tail-regime log-space histogram: Count
// trials whose log(epochs) fell in [Bucket, Bucket+1) * TailQuantum.
type TailBucket struct {
	Bucket int32  `json:"b"`
	Count  uint64 `json:"n"`
}

// TailQuantum is the log-space bucket width of tail-regime tallies
// (an exact power of two, so bucket boundaries are representable).
const TailQuantum = 1.0 / 1024

// MinDirectProb bounds direct event-driven simulation: below this
// per-window success probability the expected epochs per trial exceed
// ~500k and the engine switches to the closed-form tail sampler. (The
// artifact's C++ simulator is bounded the same way; it simply skips —
// the tail sampler is what lets the distributed sweep validate the
// 10^13-day points of Figs. 6/10 instead.) With stats.PoissonWindows a
// 500k-window trial costs about a millisecond, so the bound is no longer
// about cost; it stays where it is because it decides which regime, and
// so which RNG draws, each cell uses: moving it changes the bits of
// every cell it crosses.
const MinDirectProb = 2e-6

// add128 adds (addHi:addLo) into (hi:lo).
func add128(hi, lo, addHi, addLo uint64) (uint64, uint64) {
	l, carry := bits.Add64(lo, addLo, 0)
	h, _ := bits.Add64(hi, addHi, carry)
	return h, l
}

// u128Float converts a 128-bit unsigned integer to float64.
func u128Float(hi, lo uint64) float64 {
	return float64(hi)*0x1p64 + float64(lo)
}

// u128Less reports (aHi:aLo) < (bHi:bLo).
func u128Less(aHi, aLo, bHi, bLo uint64) bool {
	return aHi < bHi || (aHi == bHi && aLo < bLo)
}

// addDirect folds one directly simulated trial (epochs >= 1) into the
// tally's exact accumulators.
func (t *Tally) addDirect(epochs uint64) {
	t.Trials++
	t.Direct++
	t.SumHi, t.SumLo = add128(t.SumHi, t.SumLo, 0, epochs)
	sqHi, sqLo := bits.Mul64(epochs, epochs)
	t.SqHi, t.SqLo = add128(t.SqHi, t.SqLo, sqHi, sqLo)
	if epochs > t.MaxEpochs {
		t.MaxEpochs = epochs
	}
}

// Merge returns the tally combining a and b. Because every accumulator
// is an exact integer (128-bit sums, max, histogram counts), Merge is
// associative and commutative bit-for-bit: any fold order or split of a
// batch set yields the identical merged tally, and therefore the
// identical MonteCarloResult. This is the property the distributed
// sweep's bit-identity guarantee rests on, pinned by the property tests
// in tally_test.go.
func (a Tally) Merge(b Tally) Tally {
	out := Tally{
		Trials:  a.Trials + b.Trials,
		Skipped: a.Skipped || b.Skipped,
		Direct:  a.Direct + b.Direct,
		Tail:    a.Tail + b.Tail,
	}
	out.SumHi, out.SumLo = add128(a.SumHi, a.SumLo, b.SumHi, b.SumLo)
	out.SqHi, out.SqLo = add128(a.SqHi, a.SqLo, b.SqHi, b.SqLo)
	out.MaxEpochs = a.MaxEpochs
	if b.MaxEpochs > out.MaxEpochs {
		out.MaxEpochs = b.MaxEpochs
	}
	out.TailBuckets = mergeBuckets(a.TailBuckets, b.TailBuckets)
	return out
}

// mergeBuckets merge-joins two sorted bucket histograms, adding counts.
func mergeBuckets(a, b []TailBucket) []TailBucket {
	if len(a) == 0 {
		return append([]TailBucket(nil), b...)
	}
	if len(b) == 0 {
		return append([]TailBucket(nil), a...)
	}
	out := make([]TailBucket, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Bucket < b[j].Bucket:
			out = append(out, a[i])
			i++
		case a[i].Bucket > b[j].Bucket:
			out = append(out, b[j])
			j++
		default:
			out = append(out, TailBucket{Bucket: a[i].Bucket, Count: a[i].Count + b[j].Count})
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// MergeTallies folds any number of tallies. The zero Tally is the
// identity, so an empty input yields it.
func MergeTallies(ts ...Tally) Tally {
	var out Tally
	for _, t := range ts {
		out = out.Merge(t)
	}
	return out
}

// Validate checks the tally's internal invariants — the gate hostile or
// corrupt envelopes must pass before a merge will fold them (see
// FuzzTallyDecode). Every violated invariant is impossible for a tally
// produced by RunBatch or Merge.
func (t Tally) Validate() error {
	if t.Trials < 0 || t.Direct < 0 || t.Tail < 0 {
		return fmt.Errorf("attack: tally has negative counts (trials %d, direct %d, tail %d)", t.Trials, t.Direct, t.Tail)
	}
	if t.Skipped {
		if t.Direct != 0 || t.Tail != 0 {
			return fmt.Errorf("attack: skipped tally carries trial data (direct %d, tail %d)", t.Direct, t.Tail)
		}
	} else if t.Direct+t.Tail != t.Trials {
		return fmt.Errorf("attack: tally accounts for %d+%d trials but declares %d", t.Direct, t.Tail, t.Trials)
	}
	if t.Direct > 0 && t.Tail > 0 {
		return fmt.Errorf("attack: tally mixes direct and tail regimes (%d direct, %d tail); a cell's success probability fixes one regime", t.Direct, t.Tail)
	}
	if t.Direct == 0 {
		if t.SumLo != 0 || t.SumHi != 0 || t.SqLo != 0 || t.SqHi != 0 || t.MaxEpochs != 0 {
			return fmt.Errorf("attack: tally has epoch sums but no direct trials")
		}
	} else {
		// Each trial takes at least one epoch, at most MaxEpochs.
		if u128Less(t.SumHi, t.SumLo, 0, uint64(t.Direct)) {
			return fmt.Errorf("attack: epoch sum below one epoch per trial")
		}
		if t.MaxEpochs == 0 || u128Less(t.SumHi, t.SumLo, 0, t.MaxEpochs) {
			return fmt.Errorf("attack: max epochs %d inconsistent with epoch sum", t.MaxEpochs)
		}
		maxHi, maxLo := bits.Mul64(t.MaxEpochs, uint64(t.Direct))
		if u128Less(maxHi, maxLo, t.SumHi, t.SumLo) {
			return fmt.Errorf("attack: epoch sum exceeds direct*max")
		}
		if u128Less(t.SqHi, t.SqLo, t.SumHi, t.SumLo) {
			return fmt.Errorf("attack: squared-epoch sum below epoch sum")
		}
	}
	if t.Tail == 0 {
		if len(t.TailBuckets) != 0 {
			return fmt.Errorf("attack: tally has %d tail buckets but no tail trials", len(t.TailBuckets))
		}
	} else {
		var n uint64
		prev := int32(-1)
		for i, b := range t.TailBuckets {
			if b.Bucket < 0 {
				return fmt.Errorf("attack: tail bucket %d is negative (%d)", i, b.Bucket)
			}
			if i > 0 && b.Bucket <= prev {
				return fmt.Errorf("attack: tail buckets not strictly ascending at index %d", i)
			}
			if b.Count == 0 {
				return fmt.Errorf("attack: tail bucket %d has zero count", b.Bucket)
			}
			n += b.Count
			prev = b.Bucket
		}
		if n != uint64(t.Tail) {
			return fmt.Errorf("attack: tail buckets count %d trials but tally declares %d", n, t.Tail)
		}
	}
	return nil
}

// EncodeTally serializes a tally as canonical JSON — the payload bytes
// a trial-batch store entry carries (simcache wraps them in its
// checksummed envelope). Encoding is deterministic: field order is
// fixed and the bucket histogram is sorted, so the same tally always
// produces the same bytes (and hence the same envelope checksum).
func EncodeTally(t Tally) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(t)
}

// DecodeTally is the strict tally-envelope decoder: it rejects unknown
// fields, trailing garbage, and any payload violating Validate's
// invariants, so a corrupt or hostile envelope can never fold into a
// merged result. Mirrors the posture of simcache's envelope decoding:
// malformed input is an error, never a panic or a silently wrong tally.
func DecodeTally(data []byte) (Tally, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Tally
	if err := dec.Decode(&t); err != nil {
		return Tally{}, fmt.Errorf("attack: tally payload: %w", err)
	}
	if dec.More() {
		return Tally{}, fmt.Errorf("attack: tally payload has trailing data")
	}
	if err := t.Validate(); err != nil {
		return Tally{}, err
	}
	// Canonicalize: an explicit empty bucket list (legal JSON, passes
	// Validate) decodes to the same Tally as an absent one, so decoded
	// tallies always re-encode to identical bytes.
	if len(t.TailBuckets) == 0 {
		t.TailBuckets = nil
	}
	return t, nil
}

// sortBuckets canonicalizes a bucket map into the sorted slice form.
func sortBuckets(m map[int32]uint64) []TailBucket {
	if len(m) == 0 {
		return nil
	}
	out := make([]TailBucket, 0, len(m))
	for b, n := range m {
		out = append(out, TailBucket{Bucket: b, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}

// Result folds the (merged) tally into the MonteCarloResult the figure
// renderers consume. The fold is deterministic: direct-regime means
// come from exact integer sums; tail-regime means are a log-sum-exp
// over the histogram in ascending bucket order. Result assumes the
// tally is single-regime, which Validate enforces and which holds for
// any merge of batches of one cell.
func (t Tally) Result(m Model) MonteCarloResult {
	res := MonteCarloResult{Iterations: t.Trials}
	if t.Skipped {
		res.Skipped = true
		res.MeanTimeNS = math.Inf(1)
		return res
	}
	window := m.Timing.RefreshWindow
	if t.Direct > 0 {
		n := float64(t.Direct)
		mean := u128Float(t.SumHi, t.SumLo) / n
		res.MeanEpochs = mean
		res.MeanTimeNS = mean * window
		if t.Direct > 1 {
			m2 := u128Float(t.SqHi, t.SqLo) / n
			v := (m2 - mean*mean) * n / (n - 1)
			if v < 0 {
				v = 0
			}
			res.StdErrTimeNS = math.Sqrt(v/n) * window
		}
		return res
	}
	if t.Tail > 0 {
		res.Tail = true
		n := float64(t.Tail)
		logSum, logSumSq := math.Inf(-1), math.Inf(-1)
		for _, b := range t.TailBuckets {
			c := (float64(b.Bucket) + 0.5) * TailQuantum // bucket-center log(epochs)
			lc := math.Log(float64(b.Count))
			logSum = stats.LogAddExp(logSum, c+lc)
			logSumSq = stats.LogAddExp(logSumSq, 2*c+lc)
		}
		logN := math.Log(n)
		mean := math.Exp(logSum - logN)
		res.MeanEpochs = mean
		res.MeanTimeNS = mean * window
		if t.Tail > 1 {
			m2 := math.Exp(logSumSq - logN)
			v := (m2 - mean*mean) * n / (n - 1)
			if v < 0 {
				v = 0
			}
			res.StdErrTimeNS = math.Sqrt(v/n) * window
		}
	}
	return res
}
