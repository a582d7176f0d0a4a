package objstore

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/simcache"
)

// FuzzEntryUpload fuzzes the server's entry-upload path (PUT
// /v1/entry/{key}) with arbitrary request bodies. Its contract mirrors
// simcache's FuzzReadEntry — whose corpus shapes seed this one — at
// the network boundary: the server never panics, accepts only a
// bit-exact valid envelope for the key, and a rejected upload leaves
// the store byte-for-byte untouched, so a corrupt push can never
// poison the store every other worker and the merge stage read from.
func FuzzEntryUpload(f *testing.F) {
	key := simcache.Key("fuzz-upload")
	valid, err := simcache.EncodeEntry(key, map[string]any{"ipc": 1.25, "cycles": 123456})
	if err != nil {
		f.Fatal(err)
	}
	// The FuzzReadEntry corpus, re-aimed at the upload path.
	f.Add(valid)                                                                             // intact entry: the one legal accept
	f.Add(valid[:len(valid)/2])                                                              // truncated mid-envelope
	f.Add(valid[:0])                                                                         // empty body
	f.Add([]byte("not json at all"))                                                         // garbage
	f.Add([]byte(`{"schema":999}`))                                                          // wrong schema, no payload
	f.Add([]byte(`{"payload":null}`))                                                        // missing checksum
	f.Add([]byte(`[1,2,3]`))                                                                 // JSON of the wrong shape
	f.Add([]byte("{\"schema\":1,\"key\":\"" + key + "\",\"sha256\":\"00\",\"payload\":{}}")) // bad sum
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01 // single bit flip inside the envelope
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		cache, err := simcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(cache, ServerOptions{})
		req := httptest.NewRequest(http.MethodPut, "/v1/entry/"+key, bytes.NewReader(data))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusOK:
			// An accept is only legal for a valid envelope, and the
			// stored bytes must re-validate and round-trip.
			if _, ok := simcache.DecodeEntry(data, key); !ok {
				t.Fatalf("invalid upload accepted: %q", data)
			}
			stored, ok := cache.GetRaw(key)
			if !ok {
				t.Fatal("accepted upload not readable back")
			}
			if _, valid := simcache.DecodeEntry(stored, key); !valid {
				t.Fatalf("stored bytes fail validation: %q", stored)
			}
		default:
			// A reject must leave no trace: the key stays a miss.
			if cache.Has(key) {
				t.Fatalf("rejected upload (%d) poisoned the store: %q", rec.Code, data)
			}
		}
	})
}

// FuzzClaimDecode fuzzes the control-plane decoders (POST
// /m/{fp}/claim and /m/{fp}/complete) with arbitrary bodies. Whatever arrives, the
// server must answer 200/400/409 (never panic, never 500), any granted
// claim must be internally consistent with the queue, and the queue's
// job accounting must stay conserved.
func FuzzClaimDecode(f *testing.F) {
	f.Add([]byte(`{"worker":"w0"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"worker":""}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"worker":"w0","job":0,"lease":"1"}`))
	f.Add([]byte(`{"job":-1,"lease":"","worker":"w"}`))
	f.Add([]byte(`{"job":1e300}`))
	f.Add(bytes.Repeat([]byte("a"), 1024))

	f.Fuzz(func(t *testing.T, data []byte) {
		cache, err := simcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		jobs := testJobs(2)
		srv := NewServer(cache, ServerOptions{Lease: time.Minute})
		reg, err := srv.Register(jobsManifest(jobs))
		if err != nil {
			t.Fatal(err)
		}
		h, claim := srv.Handler(), "/m/"+reg.Fingerprint+"/claim"

		for _, path := range []string{claim, "/m/" + reg.Fingerprint + "/complete"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
			default:
				t.Fatalf("POST %s answered %d for body %q", path, rec.Code, data)
			}
			if path == claim && rec.Code == http.StatusOK {
				var resp ClaimResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("claim 200 with undecodable body: %v", err)
				}
				if resp.Status == ClaimJob {
					c := resp.Claim
					if c == nil || c.Job < 0 || c.Job >= len(jobs) || c.Key != jobs[c.Job].Key || c.Lease == "" {
						t.Fatalf("granted claim is inconsistent: %+v", resp)
					}
				}
			}
		}
		// Conservation: every job is still exactly one of
		// pending/leased/done, whatever the fuzzer sent.
		st := srv.tenantFor(reg.Fingerprint).queue.Stats()
		if st.Pending+st.Leased+st.Done != st.Jobs {
			t.Fatalf("queue accounting broken: %+v", st)
		}
	})
}

// FuzzHeartbeatDecode fuzzes the heartbeat decoder (POST
// /m/{fp}/heartbeat, on a registered and an unknown fingerprint) with
// arbitrary bodies: the answer is always 200/400/409/404 — never a
// panic, never a 5xx — a 409 always carries the
// lease-lost code (it is the route's only conflict), and no body of
// any shape can corrupt the queue's job accounting or mark a job done.
func FuzzHeartbeatDecode(f *testing.F) {
	f.Add([]byte(`{"job":0,"lease":"x","worker":"w"}`))
	f.Add([]byte(`{"job":0,"lease":"","worker":"w"}`))
	f.Add([]byte(`{"job":-1,"lease":"x","worker":"w"}`))
	f.Add([]byte(`{"job":5,"lease":"x","worker":"w"}`))
	f.Add([]byte(`{"worker":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"job":1e300,"lease":"x","worker":"w"}`))
	f.Add(bytes.Repeat([]byte("b"), 2048))

	f.Fuzz(func(t *testing.T, data []byte) {
		cache, err := simcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(cache, ServerOptions{Lease: time.Minute})
		reg, err := srv.Register(jobsManifest(testJobs(2)))
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		// One held lease, so a lucky fuzz input can land a legal renewal.
		claimReq := httptest.NewRequest(http.MethodPost, "/m/"+reg.Fingerprint+"/claim", bytes.NewReader([]byte(`{"worker":"holder"}`)))
		h.ServeHTTP(httptest.NewRecorder(), claimReq)

		for _, path := range []string{"/m/" + reg.Fingerprint + "/heartbeat", "/m/" + testKey(0) + "/heartbeat"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusNotFound:
			default:
				t.Fatalf("POST %s answered %d for body %q", path, rec.Code, data)
			}
			if rec.Code == http.StatusConflict {
				var body struct {
					Code string `json:"code"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Code != codeLeaseLost {
					t.Fatalf("heartbeat 409 without the lease-lost code: %q", rec.Body.Bytes())
				}
			}
		}
		st := srv.tenantFor(reg.Fingerprint).queue.Stats()
		if st.Pending+st.Leased+st.Done != st.Jobs {
			t.Fatalf("queue accounting broken: %+v", st)
		}
		if st.Done != 0 {
			t.Fatalf("a heartbeat completed a job: %+v", st)
		}
	})
}

// FuzzRegisterDecode fuzzes manifest registration (POST /v1/register)
// with arbitrary bodies: 200 or 400, never a panic. Every accepted
// registration must yield a well-formed fingerprint whose namespaced
// status route immediately works and whose queue accounting is sound —
// a hostile manifest can be rejected, but a half-registered tenant must
// never exist.
func FuzzRegisterDecode(f *testing.F) {
	f.Add(testManifest(1, 2))
	f.Add([]byte(`{"jobs":[]}`))
	f.Add([]byte(`{"jobs":[{"key":"zz"}]}`))
	f.Add([]byte(`{"jobs":[{"key":"` + testKey(3) + `"},{"key":"` + testKey(3) + `"}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte("not json"))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"jobs":42}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cache, err := simcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(cache, ServerOptions{})
		h := srv.Handler()
		req := httptest.NewRequest(http.MethodPost, "/v1/register", bytes.NewReader(data))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var resp RegisterResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("register 200 with undecodable body: %v", err)
			}
			if !validKey(resp.Fingerprint) || resp.Jobs <= 0 {
				t.Fatalf("accepted registration is inconsistent: %+v", resp)
			}
			streq := httptest.NewRequest(http.MethodGet, "/m/"+resp.Fingerprint+"/status", nil)
			strec := httptest.NewRecorder()
			h.ServeHTTP(strec, streq)
			if strec.Code != http.StatusOK {
				t.Fatalf("registered tenant's status answers %d", strec.Code)
			}
			st, err := DecodeQueueStats(strec.Body.Bytes())
			if err != nil {
				t.Fatalf("registered tenant's status undecodable: %v", err)
			}
			if st.Jobs != resp.Jobs || st.Pending+st.Leased+st.Done != st.Jobs {
				t.Fatalf("fresh tenant accounting broken: %+v vs %+v", st, resp)
			}
		case http.StatusBadRequest:
			if srv.Jobs() != 0 {
				t.Fatalf("rejected registration left a tenant behind: %d jobs", srv.Jobs())
			}
		default:
			t.Fatalf("POST /v1/register answered %d for body %q", rec.Code, data)
		}
	})
}

// FuzzEventsDecode fuzzes the completion-feed decoder with arbitrary
// bytes: whatever a broken proxy or truncated long-poll delivers,
// DecodeEvents returns clean events or an error — never panics, and
// never lets a malformed sequence number or a hostile key (the only
// thing a feed consumer forwards into store lookups) through.
func FuzzEventsDecode(f *testing.F) {
	good := "{\"seq\":1,\"key\":\"" + testKey(0) + "\"}\n{\"seq\":2,\"key\":\"" + testKey(1) + "\"}\n"
	f.Add([]byte(good))
	f.Add([]byte(good + "\n\n")) // trailing blank lines are fine
	f.Add([]byte(""))
	f.Add([]byte("not json\n"))
	f.Add([]byte(`{"seq":0,"key":"` + testKey(0) + `"}`))  // seq below 1
	f.Add([]byte(`{"seq":-5,"key":"` + testKey(0) + `"}`)) // negative seq
	f.Add([]byte(`{"seq":3,"key":"zz"}`))                  // malformed key
	f.Add([]byte(`{"seq":3,"key":"../../etc/passwd"}`))    // hostile key
	f.Add([]byte(`{"seq":1e300,"key":"` + testKey(0) + `"}`))
	f.Add([]byte(good[:len(good)/2])) // torn mid-line
	f.Add(bytes.Repeat([]byte(`{"seq":1,"key":"`+testKey(0)+`"}`+"\n"), 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeEvents(data)
		if err != nil {
			return
		}
		for i, ev := range evs {
			if ev.Seq < 1 {
				t.Fatalf("event %d decoded with seq %d", i, ev.Seq)
			}
			if !validKey(ev.Key) {
				t.Fatalf("event %d decoded with invalid key %q", i, ev.Key)
			}
		}
	})
}

// FuzzStatusDecoders fuzzes the client-side status decoders with
// arbitrary bytes: whatever a broken proxy or mismatched daemon sends,
// DecodeQueueStats and DecodeServiceStatus must return a value or an
// error — never panic.
func FuzzStatusDecoders(f *testing.F) {
	f.Add([]byte(`{"jobs":3,"pending":1,"leased":1,"done":1}`))
	f.Add([]byte(`{"workers":{"w0":{"claimed":1,"idle_seconds":0.5}}}`))
	f.Add([]byte(`{"manifests":[{"fingerprint":"ff","jobs":1}],"workers":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte("not json"))
	f.Add([]byte(`{"jobs":"three"}`))
	f.Add([]byte(`{"manifests":42}`))
	f.Add([]byte{0xff, 0xfe})

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeQueueStats(data); err != nil {
			_ = err
		}
		if _, err := DecodeServiceStatus(data); err != nil {
			_ = err
		}
	})
}
