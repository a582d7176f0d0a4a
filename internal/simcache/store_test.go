package simcache

import (
	"reflect"
	"testing"
)

// countingStore is a Store over a Cache that logs every call, so a
// test can pin the exact store traffic of a job runner.
type countingStore struct {
	c     *Cache
	calls []string
}

func (s *countingStore) Get(key string, v any) (bool, error) {
	s.calls = append(s.calls, "get "+key)
	return s.c.Get(key, v)
}

func (s *countingStore) Put(key string, v any) error {
	s.calls = append(s.calls, "put "+key)
	return s.c.Put(key, v)
}

// TestStoreRunnersCallBudget pins the store traffic of the two sweep
// job runners, which a work-stealing job pays over the network: a miss
// reads and writes its key, a derivable cell also reads its baseline,
// and a hit only reads.
func TestStoreRunnersCallBudget(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &countingStore{c: c}
	w, sys, opt, spec := testWorkload(t), testSys(), testOpts(), mcSpec()
	cell, base, mc := RunKey(w, sys, opt), RunKey(w, baselineOf(sys), opt), MCKey(spec, 7, 0, 100)
	check := func(what string, hit bool, err error, want ...string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if hit != (len(want) == 1) {
			t.Errorf("%s: hit %v, want %v", what, hit, len(want) == 1)
		}
		if !reflect.DeepEqual(s.calls, want) {
			t.Errorf("%s made store calls %q, want %q", what, s.calls, want)
		}
		s.calls = nil
	}
	_, hit, err := RunCachedStore(s, w, baselineOf(sys), opt)
	check("a baseline miss", hit, err, "get "+base, "put "+base)
	r, hit, err := RunCachedStore(s, w, sys, opt)
	check("a derivable cell", hit, err, "get "+cell, "get "+base, "put "+cell)
	if !r.Derived() {
		t.Error("the cell was simulated, not derived from its stored baseline")
	}
	_, hit, err = RunCachedStore(s, w, sys, opt)
	check("a stored cell", hit, err, "get "+cell)
	_, hit, err = RunMCBatch(s, spec, 7, 0, 100)
	check("a trial batch", hit, err, "get "+mc, "put "+mc)
	_, hit, err = RunMCBatch(s, spec, 7, 0, 100)
	check("a stored trial batch", hit, err, "get "+mc)
}
