package objstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simcache"
)

func newTestServer(t *testing.T, opt ServerOptions) (*Server, *Client, *simcache.Cache) {
	t.Helper()
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cache, opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	c.backoff = time.Millisecond
	return srv, c, cache
}

// TestServerEntryRoundTrip proves the push/pull path preserves entries
// bit-identically: what a worker pushes is what a reader pulls,
// checksums and all.
func TestServerEntryRoundTrip(t *testing.T) {
	_, c, cache := newTestServer(t, ServerOptions{})
	key := simcache.Key("roundtrip")
	payload := map[string]any{"ipc": 1.25, "cycles": 123456.0}

	if ok, err := c.Get(key, &map[string]any{}); ok || err != nil {
		t.Fatalf("empty store Get = (%v, %v), want miss", ok, err)
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	// The server persisted a real simcache entry.
	if !cache.Has(key) {
		t.Fatal("pushed entry not in the server's cache directory")
	}
	var got map[string]any
	ok, err := c.Get(key, &got)
	if err != nil || !ok {
		t.Fatalf("Get after Put = (%v, %v)", ok, err)
	}
	if !reflect.DeepEqual(got, payload) {
		t.Errorf("round-tripped payload %v != %v", got, payload)
	}
	// Raw bytes are byte-identical to a locally encoded envelope.
	raw, ok, err := c.GetEntryRaw(key)
	if err != nil || !ok {
		t.Fatalf("GetEntryRaw = (%v, %v)", ok, err)
	}
	want, err := simcache.EncodeEntry(key, payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(want) {
		t.Error("network envelope differs from local encoding")
	}
}

// TestServerRejectsCorruptUpload: the upload gate is the same
// schema/key/checksum validation local reads enforce, so a corrupt
// push gets a 400 and never lands in the store.
func TestServerRejectsCorruptUpload(t *testing.T) {
	_, c, cache := newTestServer(t, ServerOptions{})
	key := simcache.Key("corrupt-upload")
	valid, err := simcache.EncodeEntry(key, map[string]int{"v": 1})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	for name, bad := range map[string][]byte{
		"bit-flip":  flipped,
		"truncated": valid[:len(valid)/2],
		"garbage":   []byte("not an envelope"),
		"empty":     {},
	} {
		if err := c.PutEntryRaw(key, bad); err == nil {
			t.Errorf("%s upload accepted", name)
		}
		if cache.Has(key) {
			t.Fatalf("%s upload poisoned the store", name)
		}
	}
	// The wrong-key case: a valid envelope pushed under another key.
	other := simcache.Key("other-key")
	if err := c.PutEntryRaw(other, valid); err == nil {
		t.Error("envelope uploaded under a mismatched key was accepted")
	}
}

// TestServerCostsEWMAAcrossWorkers: repeated observations from
// different pushers fold into one EWMA estimate.
func TestServerCostsEWMAAcrossWorkers(t *testing.T) {
	_, c, cache := newTestServer(t, ServerOptions{})
	key := testKey(7)
	c.RecordCost(key, 2.0)
	c.RecordCost(key, 2.0)
	c.RecordCost(key, 2.0)
	s, ok := cache.Costs().Seconds(key)
	if !ok || s != 2.0 {
		t.Fatalf("steady observations give %g, want 2.0", s)
	}
	c.RecordCost(key, 8.0) // one straggler machine
	if s, _ = cache.Costs().Seconds(key); s <= 2.0 || s >= 8.0 {
		t.Fatalf("outlier folded to %g, want strictly between 2 and 8", s)
	}
}

// TestServerQueueOverHTTP drains a queue through the real HTTP surface
// with two client "workers", completing each job only after its entry
// is pushed — the full work-stealing protocol minus the simulator.
func TestServerQueueOverHTTP(t *testing.T) {
	jobs := testJobs(5)
	srv, c, _ := newTestServer(t, ServerOptions{Jobs: jobs, Lease: time.Minute})
	done := 0
	workers := []string{"w0", "w1"}
	for i := 0; ; i++ {
		w := workers[i%2]
		resp, err := c.ClaimJob(w)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status == ClaimDone {
			break
		}
		if resp.Status != ClaimJob {
			t.Fatalf("unexpected claim status %q with jobs pending", resp.Status)
		}
		if err := c.Put(resp.Claim.Key, map[string]int{"job": resp.Claim.Job}); err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(resp.Claim.Job, resp.Claim.Lease, w); err != nil {
			t.Fatal(err)
		}
		done++
	}
	if done != len(jobs) {
		t.Fatalf("drained %d jobs, want %d", done, len(jobs))
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != len(jobs) || st.Pending != 0 || st.Leased != 0 {
		t.Errorf("status after drain: %+v", st)
	}
	if st.Claimed["w0"]+st.Claimed["w1"] != len(jobs) {
		t.Errorf("per-worker claims do not sum to the job count: %+v", st.Claimed)
	}
	if got := srv.Stats(); got.Done != len(jobs) {
		t.Errorf("server-side stats disagree: %+v", got)
	}
}

// TestServerManifest serves the bytes it was started with, 404s
// without one.
func TestServerManifest(t *testing.T) {
	manifest := []byte(`{"schema":2,"jobs":[]}`)
	_, c, _ := newTestServer(t, ServerOptions{Manifest: manifest})
	got, err := c.ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(manifest) {
		t.Errorf("manifest %q != %q", got, manifest)
	}
	_, c2, _ := newTestServer(t, ServerOptions{})
	if _, err := c2.ManifestJSON(); err == nil {
		t.Error("manifest-less server served a manifest")
	}
}

// TestServerRejectsHostileKeys: non-SHA-256 keys (path traversal,
// wrong length, non-hex) never reach the filesystem layer.
func TestServerRejectsHostileKeys(t *testing.T) {
	_, c, _ := newTestServer(t, ServerOptions{})
	for _, key := range []string{
		"..%2F..%2Fetc%2Fpasswd",
		"short",
		testKey(0)[:63] + "Z",
	} {
		if err := c.PutEntryRaw(key, []byte("{}")); err == nil {
			t.Errorf("hostile key %q accepted on PUT", key)
		}
		if _, ok, err := c.GetEntryRaw(key); ok || err == nil {
			t.Errorf("hostile key %q accepted on GET: ok=%v err=%v", key, ok, err)
		}
	}
}

// testManifest builds raw manifest JSON over n distinct jobs, with an
// arbitrary salt so two manifests can coexist without sharing keys.
func testManifest(salt byte, n int) []byte {
	type j struct {
		Key      string `json:"key"`
		Workload string `json:"workload"`
		Label    string `json:"label"`
	}
	m := struct {
		Schema int `json:"schema"`
		Jobs   []j `json:"jobs"`
	}{Schema: 2}
	for i := 0; i < n; i++ {
		m.Jobs = append(m.Jobs, j{Key: testKey(salt + byte(i)), Workload: "w", Label: "l"})
	}
	raw, _ := json.Marshal(m)
	return raw
}

// TestManifestFingerprintCanonical: the fingerprint depends on content,
// not formatting — the daemon (reading the registration body) and a
// worker (reading the manifest file) must derive the same namespace
// from differently-formatted bytes.
func TestManifestFingerprintCanonical(t *testing.T) {
	raw := testManifest(1, 3)
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	pretty, err := json.MarshalIndent(v, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	fp1, err1 := ManifestFingerprint(raw)
	fp2, err2 := ManifestFingerprint(pretty)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if fp1 != fp2 {
		t.Errorf("reformatting changed the fingerprint: %s vs %s", fp1, fp2)
	}
	if !validKey(fp1) {
		t.Errorf("fingerprint %q is not a SHA-256 hex digest", fp1)
	}
	if _, err := ManifestFingerprint([]byte("not json")); err == nil {
		t.Error("non-JSON manifest fingerprinted")
	}
}

// TestServerRegisterIdempotent: every worker of a sweep registers the
// same manifest; only the first registration builds a queue, the rest
// are acknowledged no-ops that never reset in-flight leases.
func TestServerRegisterIdempotent(t *testing.T) {
	_, c, _ := newTestServer(t, ServerOptions{})
	raw := testManifest(10, 4)
	reg1, err := c.Register(raw)
	if err != nil {
		t.Fatal(err)
	}
	if reg1.Existing || reg1.Jobs != 4 {
		t.Fatalf("first registration: %+v", reg1)
	}
	// A claim in flight...
	mc := c.ForManifest(reg1.Fingerprint)
	claim, err := mc.ClaimJob("w0")
	if err != nil || claim.Status != ClaimJob {
		t.Fatalf("claim: %+v, %v", claim, err)
	}
	// ...survives a re-registration, even a reformatted one.
	var v any
	json.Unmarshal(raw, &v)
	pretty, _ := json.MarshalIndent(v, "", "  ")
	reg2, err := c.Register(pretty)
	if err != nil {
		t.Fatal(err)
	}
	if !reg2.Existing || reg2.Fingerprint != reg1.Fingerprint {
		t.Fatalf("re-registration: %+v (first %+v)", reg2, reg1)
	}
	if err := mc.Complete(claim.Claim.Job, claim.Claim.Lease, "w0"); err != nil {
		t.Errorf("lease did not survive re-registration: %v", err)
	}
	// Garbage registrations are 400s, never panics or tenants.
	for _, bad := range [][]byte{[]byte("not json"), []byte(`{"jobs":[]}`), []byte(`{"jobs":[{"key":"zz"}]}`)} {
		if _, err := c.Register(bad); err == nil {
			t.Errorf("hostile manifest %q registered", bad)
		}
	}
}

// TestServerNamespaceIsolation: two manifests on one daemon get
// disjoint queues — claims from one namespace never hand out the
// other's jobs, and each status reports only its own progress.
func TestServerNamespaceIsolation(t *testing.T) {
	_, c, _ := newTestServer(t, ServerOptions{})
	rawA, rawB := testManifest(20, 3), testManifest(40, 2)
	regA, errA := c.Register(rawA)
	regB, errB := c.Register(rawB)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if regA.Fingerprint == regB.Fingerprint {
		t.Fatal("distinct manifests share a fingerprint")
	}
	keysA := map[string]bool{}
	var jobsA []QueueJob
	json.Unmarshal(rawA, &struct {
		Jobs *[]QueueJob `json:"jobs"`
	}{&jobsA})
	for _, j := range jobsA {
		keysA[j.Key] = true
	}
	cA, cB := c.ForManifest(regA.Fingerprint), c.ForManifest(regB.Fingerprint)
	// Drain A completely; B must be untouched throughout.
	for i := 0; i < 3; i++ {
		resp, err := cA.ClaimJob("wa")
		if err != nil || resp.Status != ClaimJob {
			t.Fatalf("claim A %d: %+v, %v", i, resp, err)
		}
		if !keysA[resp.Claim.Key] {
			t.Fatalf("namespace A handed out foreign key %.12s…", resp.Claim.Key)
		}
		if err := cA.Put(resp.Claim.Key, map[string]int{"v": i}); err != nil {
			t.Fatal(err)
		}
		if err := cA.Complete(resp.Claim.Job, resp.Claim.Lease, "wa"); err != nil {
			t.Fatal(err)
		}
	}
	if resp, err := cA.ClaimJob("wa"); err != nil || resp.Status != ClaimDone {
		t.Fatalf("namespace A not drained: %+v, %v", resp, err)
	}
	stA, errA := cA.Status()
	stB, errB := cB.Status()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if stA.Done != 3 || stA.Jobs != 3 {
		t.Errorf("status A: %+v", stA)
	}
	if stB.Done != 0 || stB.Pending != 2 || stB.Jobs != 2 {
		t.Errorf("status B saw A's progress: %+v", stB)
	}
	// Unknown fingerprints 404 rather than falling back to a tenant.
	if _, err := c.ForManifest(testKey(99)).ClaimJob("w"); err == nil {
		t.Error("claim against an unregistered fingerprint succeeded")
	}
	// The manifest-less daemon has no default tenant for legacy routes.
	if _, err := c.ClaimJob("w"); err == nil {
		t.Error("legacy claim succeeded on a daemon with no default manifest")
	}
}

// TestServerWarmStoreRecovery: a fresh Server built over a cache that
// already holds results marks those jobs done at registration — the
// restart path that lets a daemon resume a half-finished sweep.
func TestServerWarmStoreRecovery(t *testing.T) {
	cache, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := testManifest(60, 4)
	jobs, err := decodeManifestJobs(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Two of four results are already in the store.
	for _, j := range jobs[:2] {
		if err := cache.Put(j.Key, map[string]string{"done": "before restart"}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(cache, ServerOptions{Manifest: raw, Lease: time.Minute})
	st := srv.Stats()
	if st.Recovered != 2 || st.Done != 2 || st.Pending != 2 {
		t.Fatalf("warm-store stats: %+v", st)
	}
	// Claims hand out only the unstored jobs, then report done.
	got := map[string]bool{}
	for {
		resp := srv.tenantFor("").queue.Claim("w")
		if resp.Status != ClaimJob {
			break
		}
		got[resp.Claim.Key] = true
		if err := srv.tenantFor("").queue.Complete(resp.Claim.Job, resp.Claim.Lease, "w", nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 2 || got[jobs[0].Key] || got[jobs[1].Key] {
		t.Errorf("claims after recovery handed out %v", got)
	}
}

// TestServerLoadPersisted: manifests registered over HTTP are persisted
// in the store directory and a brand-new Server over the same directory
// reloads them — fingerprints, job sets, and recovered done-ness — so
// a daemon restart forgets nothing durable.
func TestServerLoadPersisted(t *testing.T) {
	dir := t.TempDir()
	cache, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(cache, ServerOptions{}).Handler())
	c := NewClient(ts.URL)
	c.backoff = time.Millisecond
	rawA, rawB := testManifest(80, 2), testManifest(90, 3)
	regA, errA := c.Register(rawA)
	regB, errB := c.Register(rawB)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	// One of A's jobs completes (its result lands in the store).
	cA := c.ForManifest(regA.Fingerprint)
	claim, err := cA.ClaimJob("w")
	if err != nil || claim.Status != ClaimJob {
		t.Fatalf("claim: %+v, %v", claim, err)
	}
	if err := cA.Put(claim.Claim.Key, map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := cA.Complete(claim.Claim.Job, claim.Claim.Lease, "w"); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// A corrupt leftover must not poison the reload.
	if err := os.WriteFile(filepath.Join(dir, "manifests", "junk.json"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new Server over the same directory.
	cache2, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(cache2, ServerOptions{})
	if n := srv2.LoadPersisted(); n != 2 {
		t.Fatalf("LoadPersisted loaded %d manifests, want 2", n)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	c2 := NewClient(ts2.URL)
	c2.backoff = time.Millisecond
	stA, errA := c2.ForManifest(regA.Fingerprint).Status()
	stB, errB := c2.ForManifest(regB.Fingerprint).Status()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if stA.Recovered != 1 || stA.Done != 1 || stA.Pending != 1 {
		t.Errorf("restarted status A: %+v", stA)
	}
	if stB.Recovered != 0 || stB.Pending != 3 {
		t.Errorf("restarted status B: %+v", stB)
	}
	// The reloaded manifest bytes round-trip for late-joining workers.
	got, err := c2.ForManifest(regA.Fingerprint).ManifestJSON()
	if err != nil || string(got) != string(rawA) {
		t.Errorf("reloaded manifest differs: %q, %v", got, err)
	}
	// LoadPersisted on an already-loaded server is a no-op.
	if n := srv2.LoadPersisted(); n != 0 {
		t.Errorf("second LoadPersisted loaded %d manifests", n)
	}
}

// TestServerHeartbeatOverHTTP: the full heartbeat protocol through the
// real client — renewal succeeds on a held lease, and every flavor of
// gone lease surfaces as the typed ErrLeaseLost.
func TestServerHeartbeatOverHTTP(t *testing.T) {
	_, c, _ := newTestServer(t, ServerOptions{Jobs: testJobs(1), Lease: time.Minute})
	claim, err := c.ClaimJob("w0")
	if err != nil || claim.Status != ClaimJob {
		t.Fatalf("claim: %+v, %v", claim, err)
	}
	if err := c.Heartbeat(claim.Claim.Job, claim.Claim.Lease, "w0"); err != nil {
		t.Fatalf("heartbeat on held lease: %v", err)
	}
	if err := c.Heartbeat(claim.Claim.Job, "forged", "w1"); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("forged lease: got %v, want ErrLeaseLost", err)
	}
	if err := c.Complete(claim.Claim.Job, claim.Claim.Lease, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Heartbeat(claim.Claim.Job, claim.Claim.Lease, "w0"); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("heartbeat on done job: got %v, want ErrLeaseLost", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Heartbeats != 1 || st.Workers["w0"].Heartbeats != 1 {
		t.Errorf("heartbeat counters: %+v", st)
	}
}

// TestServerServiceStatusAndMetrics: the consolidated endpoints see
// every tenant, merge worker rows, and render scrape-able counters.
func TestServerServiceStatusAndMetrics(t *testing.T) {
	_, c, _ := newTestServer(t, ServerOptions{})
	regA, _ := c.Register(testManifest(100, 2))
	regB, _ := c.Register(testManifest(120, 1))
	cA, cB := c.ForManifest(regA.Fingerprint), c.ForManifest(regB.Fingerprint)
	// One worker serves both sweeps.
	clA, err := cA.ClaimJob("fleet-w")
	if err != nil || clA.Status != ClaimJob {
		t.Fatalf("claim A: %+v, %v", clA, err)
	}
	clB, err := cB.ClaimJob("fleet-w")
	if err != nil || clB.Status != ClaimJob {
		t.Fatalf("claim B: %+v, %v", clB, err)
	}
	if err := cB.Put(clB.Claim.Key, map[string]int{"v": 1}); err != nil {
		t.Fatal(err)
	}
	if err := cB.Complete(clB.Claim.Job, clB.Claim.Lease, "fleet-w"); err != nil {
		t.Fatal(err)
	}
	svc, err := c.ServiceStatus()
	if err != nil {
		t.Fatal(err)
	}
	if len(svc.Manifests) != 2 {
		t.Fatalf("service sees %d manifests, want 2", len(svc.Manifests))
	}
	byFP := map[string]ManifestStatus{}
	for _, m := range svc.Manifests {
		byFP[m.Fingerprint] = m
	}
	if byFP[regA.Fingerprint].Leased != 1 || byFP[regB.Fingerprint].Done != 1 {
		t.Errorf("per-manifest rows: %+v", svc.Manifests)
	}
	w := svc.Workers["fleet-w"]
	if w.Claimed != 2 || w.Completed != 1 || w.ActiveLeases != 1 {
		t.Errorf("merged worker row: %+v", w)
	}
	// Metrics: plain-text counters a scrape can grep.
	resp, err := http.Get(c.Base() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rowswap_manifests 2\n",
		"rowswap_jobs 3\n",
		"rowswap_jobs_done 1\n",
		"rowswap_jobs_leased 1\n",
		"rowswap_workers 1\n",
		fmt.Sprintf("rowswap_manifest_done{fingerprint=%q} 1\n", regB.Fingerprint),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}
