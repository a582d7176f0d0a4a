package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1 := r.Split()
	s2 := r.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Error("split streams start identically")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d distinct values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(2)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %g, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%100)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(3)
	for _, p := range []float64{0.5, 0.01, 1e-4} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			g := r.Geometric(p)
			if g < 1 {
				t.Fatalf("Geometric(%g) = %g < 1", p, g)
			}
			sum += g
		}
		mean, want := sum/n, 1/p
		if math.Abs(mean-want)/want > 0.1 {
			t.Errorf("Geometric(%g) mean = %g, want ~%g", p, mean, want)
		}
	}
	if g := r.Geometric(1); g != 1 {
		t.Errorf("Geometric(1) = %g, want 1", g)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(4)
	for _, lambda := range []float64{0.5, 5, 50, 500} {
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Errorf("Poisson(%g) mean = %g", lambda, mean)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive lambda should be 0")
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(6)
	sum, sq := 0.0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sq += v * v
	}
	if mean := sum / n; math.Abs(mean) > 0.02 {
		t.Errorf("Normal mean = %g, want ~0", mean)
	}
	if variance := sq / n; math.Abs(variance-1) > 0.03 {
		t.Errorf("Normal variance = %g, want ~1", variance)
	}
}
