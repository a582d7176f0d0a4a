package simcache

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
)

func mcSpec() attack.TrialSpec {
	return attack.TrialSpec{Model: attack.NewJuggernautSRS(4800, 10), Rounds: 0}
}

func TestMCKeyCoversIdentity(t *testing.T) {
	spec := mcSpec()
	base := MCKey(spec, 1, 0, 100)
	if MCKey(spec, 1, 0, 100) != base {
		t.Fatal("MCKey not deterministic")
	}
	other := spec
	other.Rounds = 5
	for name, k := range map[string]string{
		"seed":   MCKey(spec, 2, 0, 100),
		"batch":  MCKey(spec, 1, 1, 100),
		"trials": MCKey(spec, 1, 0, 101),
		"spec":   MCKey(other, 1, 0, 100),
	} {
		if k == base {
			t.Errorf("MCKey ignores the %s", name)
		}
	}
}

func TestRunMCBatchCaches(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := mcSpec()
	got, hit, err := RunMCBatch(cache, spec, 7, 0, 200)
	if err != nil || hit {
		t.Fatalf("first run: hit=%v err=%v", hit, err)
	}
	want := spec.RunBatch(7, 0, 200)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stored tally differs from a direct RunBatch")
	}
	again, hit, err := RunMCBatch(cache, spec, 7, 0, 200)
	if err != nil || !hit {
		t.Fatalf("second run: hit=%v err=%v", hit, err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("cached tally differs from the computed one")
	}
	// Nil store: direct execution, never a hit.
	direct, hit, err := RunMCBatch(nil, spec, 7, 0, 200)
	if err != nil || hit || !reflect.DeepEqual(direct, want) {
		t.Fatalf("nil-store run: hit=%v err=%v", hit, err)
	}
}

// A stored entry whose envelope is fine but whose tally payload
// violates its invariants must be recomputed by the worker path
// (RunMCBatch) and must fail the merge path (GetTally) loudly.
func TestCorruptTallyEntry(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := mcSpec()
	key := MCKey(spec, 3, 1, 50)
	// Valid envelope, invalid tally: declares a trial it cannot account
	// for.
	if err := cache.Put(key, json.RawMessage(`{"trials":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := GetTally(cache, key); err == nil || !hit {
		t.Fatalf("GetTally on invalid entry: hit=%v err=%v, want loud error", hit, err)
	} else if !strings.Contains(err.Error(), "invalid") {
		t.Errorf("error does not say the entry is invalid: %v", err)
	}
	got, hit, err := RunMCBatch(cache, spec, 3, 1, 50)
	if err != nil || hit {
		t.Fatalf("RunMCBatch over invalid entry: hit=%v err=%v, want recompute", hit, err)
	}
	if want := spec.RunBatch(3, 1, 50); !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed tally differs from RunBatch")
	}
	// The recompute healed the entry: the merge path now reads it.
	healed, hit, err := GetTally(cache, key)
	if err != nil || !hit || !reflect.DeepEqual(healed, got) {
		t.Fatalf("entry not healed after recompute: hit=%v err=%v", hit, err)
	}
	// Absent entries are plain misses for GetTally.
	if _, hit, err := GetTally(cache, MCKey(spec, 3, 2, 50)); err != nil || hit {
		t.Fatalf("GetTally on absent entry: hit=%v err=%v, want miss", hit, err)
	}
}
