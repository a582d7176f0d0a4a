package simcache

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
)

// countingStore is a Store over a Cache that logs every call, so a
// test can pin the exact store traffic of a job runner.
type countingStore struct {
	c     *Cache
	mu    sync.Mutex
	calls []string
}

func (s *countingStore) log(call string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = append(s.calls, call)
}

func (s *countingStore) Get(key string, v any) (bool, error) {
	s.log("get " + key)
	return s.c.Get(key, v)
}

func (s *countingStore) Put(key string, v any) error {
	s.log("put " + key)
	return s.c.Put(key, v)
}

// TestStoreRunnersCallBudget pins the store traffic of the two sweep
// job runners, which a work-stealing job pays over the network. A cell
// its Resolver already resolved costs nothing. Every other cell first
// reads its own key, and a hit stops there. A miss writes its key. A
// derivable cell reads its baseline only when its Resolver has not
// resolved the baseline yet, and writes the baseline too when the
// store lacks it.
func TestStoreRunnersCallBudget(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &countingStore{c: c}
	w, sys, opt, spec := testWorkload(t), testSys(), testOpts(), mcSpec()
	other := sys
	other.Mitigation = config.DefaultRRS(1200)
	cell, otherCell, base := RunKey(w, sys, opt), RunKey(w, other, opt), RunKey(w, baselineOf(sys), opt)
	mc := MCKey(spec, 7, 0, 100)
	check := func(what string, got, want Resolution, err error, calls ...string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got != want {
			t.Errorf("%s: resolved %v, want %v", what, got, want)
		}
		if !reflect.DeepEqual(s.calls, calls) {
			t.Errorf("%s made store calls %q, want %q", what, s.calls, calls)
		}
		s.calls = nil
	}
	var r Resolver
	_, how, err := r.Resolve(s, w, baselineOf(sys), opt)
	check("a baseline miss", how, Simulated, err, "get "+base, "put "+base)
	_, how, err = r.Resolve(s, w, sys, opt)
	check("a derivable cell", how, Derived, err, "get "+cell, "put "+cell)
	_, how, err = r.Resolve(s, w, sys, opt)
	check("a resolved cell", how, Memoized, err)
	_, how, err = r.Resolve(s, w, baselineOf(sys), opt)
	check("a resolved baseline", how, Memoized, err)

	// A fresh Resolver (another worker) reads a stored cell, and reads
	// the stored baseline once for its first derivable cell.
	var fresh Resolver
	_, how, err = fresh.Resolve(s, w, sys, opt)
	check("a stored cell", how, Stored, err, "get "+cell)
	_, how, err = fresh.Resolve(s, w, other, opt)
	check("another worker's derivable cell", how, Derived, err, "get "+otherCell, "get "+base, "put "+otherCell)

	// A cell whose baseline the store lacks resolves and stores it.
	empty, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.c = empty
	var cold Resolver
	_, how, err = cold.Resolve(s, w, sys, opt)
	check("a derivable cell without a stored baseline", how, Derived, err, "get "+cell, "get "+base, "put "+base, "put "+cell)

	batch := func() (Resolution, error) {
		_, hit, err := RunMCBatch(s, spec, 7, 0, 100)
		if hit {
			return Stored, err
		}
		return Simulated, err
	}
	how, err = batch()
	check("a trial batch", how, Simulated, err, "get "+mc, "put "+mc)
	how, err = batch()
	check("a stored trial batch", how, Stored, err, "get "+mc)
}

// TestResolverSimulatesABaselineOnce asks one Resolver for one cell
// from two goroutines at once, for a baseline and for a mitigated cell:
// one resolution and one Put of the cell serve both callers, the other
// caller is told it was memoized, and the Resolver counts each
// resolution once (the mitigated cell's baseline, simulated first,
// included).
func TestResolverSimulatesABaselineOnce(t *testing.T) {
	w, sys, opt := testWorkload(t), testSys(), testOpts()
	cell, base := RunKey(w, sys, opt), RunKey(w, baselineOf(sys), opt)
	for _, tc := range []struct {
		name  string
		sys   config.System
		how   Resolution
		calls []string
		count Counts
	}{
		{"baseline", baselineOf(sys), Simulated, []string{"get " + base, "put " + base}, Counts{Simulated: 1}},
		{"mitigated", sys, Derived, []string{"get " + cell, "get " + base, "put " + base, "put " + cell}, Counts{Simulated: 1, Derived: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s := &countingStore{c: c}
			var r Resolver
			start := make(chan struct{})
			results := make([]*sim.Result, 2)
			hows := make([]Resolution, 2)
			var wg sync.WaitGroup
			for i := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					var err error
					if results[i], hows[i], err = r.Resolve(s, w, tc.sys, opt); err != nil {
						t.Error(err)
					}
				}()
			}
			close(start)
			wg.Wait()
			if results[0] != results[1] {
				t.Error("the two callers got different results")
			}
			if got := map[Resolution]int{hows[0]: 1, hows[1]: 1}; len(got) != 2 || got[tc.how] != 1 || got[Memoized] != 1 {
				t.Errorf("resolutions %v, want one %v and one memoized", hows, tc.how)
			}
			if !reflect.DeepEqual(s.calls, tc.calls) {
				t.Errorf("store calls %q, want %q", s.calls, tc.calls)
			}
			if got := r.Counts(); got.Simulated != tc.count.Simulated || got.Derived != tc.count.Derived || got.Resumed != 0 {
				t.Errorf("counts %+v, want %+v", got, tc.count)
			}
		})
	}
}
