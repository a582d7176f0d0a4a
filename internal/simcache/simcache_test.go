package simcache

import (
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testWorkload(t *testing.T) trace.Workload {
	t.Helper()
	w, ok := trace.WorkloadByName("gcc", 2)
	if !ok {
		t.Fatal("workload gcc missing")
	}
	return w
}

func testSys() config.System {
	sys := config.Default()
	sys.Core.Cores = 2
	sys.Mitigation = config.DefaultScaleSRS(1200)
	return sys
}

func testOpts() sim.Options {
	return sim.Options{Instructions: 30_000, WindowNS: 200_000}
}

// stripHost zeroes the host-performance fields that legitimately differ
// between a cold run and a cached one.
func stripHost(r *sim.Result) *sim.Result {
	c := *r
	c.WallSeconds = 0
	c.SimIPS = 0
	return &c
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type payload struct {
		A int
		B []float64
	}
	in := payload{A: 7, B: []float64{1.5, 2.25}}
	key := Key("test", in.A)
	if hit, err := c.Get(key, &payload{}); err != nil || hit {
		t.Fatalf("empty cache Get = (%v, %v), want miss", hit, err)
	}
	if err := c.Put(key, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if hit, err := c.Get(key, &out); err != nil || !hit {
		t.Fatalf("Get after Put = (%v, %v), want hit", hit, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed payload: %+v vs %+v", in, out)
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if hit, err := c.Get(Key("x"), &struct{}{}); hit || err != nil {
		t.Errorf("nil Get = (%v, %v)", hit, err)
	}
	if err := c.Put(Key("x"), 1); err != nil {
		t.Errorf("nil Put: %v", err)
	}
	if c.Dir() != "" {
		t.Errorf("nil Dir = %q", c.Dir())
	}
}

func TestKeySensitivity(t *testing.T) {
	w := testWorkload(t)
	sys := testSys()
	opt := testOpts()
	base := RunKey(w, sys, opt)

	sys2 := sys
	sys2.Mitigation = config.DefaultRRS(1200)
	if RunKey(w, sys2, opt) == base {
		t.Error("mitigation change did not change the key")
	}
	opt2 := opt
	opt2.Seed = 99
	if RunKey(w, sys, opt2) == base {
		t.Error("seed change did not change the key")
	}
	w2, _ := trace.WorkloadByName("gups", 2)
	if RunKey(w2, sys, opt) == base {
		t.Error("workload change did not change the key")
	}
	// Normalization: explicit defaults share the zero value's entry.
	opt3 := opt
	opt3.MaxCycles = 2_000_000_000 // the documented default
	if RunKey(w, sys, opt3) != base {
		t.Error("explicitly passing a default produced a different key")
	}
}

func TestRunCachedHitIsBitIdenticalToColdRun(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, sys, opt := testWorkload(t), testSys(), testOpts()

	cold, hit, err := RunCached(c, w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first run reported a cache hit")
	}
	warm, hit, err := RunCached(c, w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("second run missed the cache")
	}
	if !reflect.DeepEqual(stripHost(cold), stripHost(warm)) {
		t.Errorf("cached result differs from cold run:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// corrupt flips a byte in the middle of every segment file in dir.
func corrupt(t *testing.T, dir string) int {
	t.Helper()
	files := segments(dir)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(files)
}

func TestCorruptedEntryIsDetectedAndResimulated(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, sys, opt := testWorkload(t), testSys(), testOpts()
	cold, _, err := RunCached(c, w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := corrupt(t, dir); n != 1 {
		t.Fatalf("%d segments written, want 1", n)
	}
	redo, hit, err := RunCached(c, w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("corrupted entry served as a hit")
	}
	if !reflect.DeepEqual(stripHost(cold), stripHost(redo)) {
		t.Error("re-simulated result differs from the original")
	}
	// The re-simulation must have replaced the corrupted entry, for
	// this Cache and for the next process alike.
	for _, cache := range []*Cache{c, reopen(t, dir)} {
		if _, hit, err := RunCached(cache, w, sys, opt); err != nil || !hit {
			t.Errorf("entry not restored after corruption: hit=%v err=%v", hit, err)
		}
	}
}

func TestTruncatedEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("trunc")
	if err := c.Put(key, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(onlySegment(t, dir), 10); err != nil {
		t.Fatal(err)
	}
	var v map[string]int
	for _, cache := range []*Cache{c, reopen(t, dir)} {
		if hit, err := cache.Get(key, &v); hit || err != nil {
			t.Errorf("truncated Get = (%v, %v), want clean miss", hit, err)
		}
	}
	// The slot is clean: a fresh Put is served, after a reopen too.
	if err := reopen(t, dir).Put(key, map[string]int{"a": 2}); err != nil {
		t.Fatal(err)
	}
	if hit, _ := reopen(t, dir).Get(key, &v); !hit || v["a"] != 2 {
		t.Errorf("re-Put after truncation: Get = (%v, %v), want a hit holding 2", hit, v)
	}
}

func TestStaleSchemaIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key("stale")
	if err := c.Put(key, 42); err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry claiming a different schema version; the
	// checksum is valid, so only the version check can reject it.
	path := onlySegment(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := []byte(`{"schema":0,` + string(data[len(`{"schema":1,`):]))
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	var v int
	for _, cache := range []*Cache{c, reopen(t, dir)} {
		if hit, err := cache.Get(key, &v); hit || err != nil {
			t.Errorf("stale-schema Get = (%v, %v), want clean miss", hit, err)
		}
	}
}

func TestNormalizedPerfCachedMatchesSim(t *testing.T) {
	w, sys, opt := testWorkload(t), testSys(), testOpts()
	want, _, _, err := sim.NormalizedPerf(w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // cold then warm
		for _, parallel := range []bool{false, true} {
			got, rb, rm, err := NormalizedPerf(c, w, sys, opt, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("round %d parallel=%v: norm = %g, want %g", round, parallel, got, want)
			}
			if rb.MeanIPC == 0 || rm.MeanIPC == 0 {
				t.Errorf("round %d: missing results", round)
			}
		}
	}
}

// TestOpenPrunesExpiredEntries: pruning works per segment. A segment
// last written before the horizon is removed with its entries; one
// written since survives.
func TestOpenPrunesExpiredEntries(t *testing.T) {
	dir := t.TempDir()
	oldKey, newKey := Key("old"), Key("new")
	if err := reopen(t, dir).Put(oldKey, 1); err != nil {
		t.Fatal(err)
	}
	// Age the first Cache's segment past the prune horizon.
	stale := time.Now().Add(-pruneAge - time.Hour)
	if err := os.Chtimes(onlySegment(t, dir), stale, stale); err != nil {
		t.Fatal(err)
	}
	if err := reopen(t, dir).Put(newKey, 2); err != nil {
		t.Fatal(err)
	}
	c := reopen(t, dir)
	var v int
	if hit, _ := c.Get(oldKey, &v); hit {
		t.Error("expired entry survived Open")
	}
	if hit, _ := c.Get(newKey, &v); !hit {
		t.Error("fresh entry pruned")
	}
	onlySegment(t, dir)
}
