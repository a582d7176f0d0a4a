package objstore

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simcache"
)

// flakyStep scripts one response of the stub server.
type flakyStep struct {
	status   int
	body     []byte
	truncate bool // advertise a longer Content-Length and cut the connection mid-body
}

// flakyServer replays a scripted response sequence, then keeps
// repeating the last step. It counts how many requests it saw so tests
// can assert the client's retry discipline.
type flakyServer struct {
	mu    sync.Mutex
	steps []flakyStep
	hits  int
}

func (f *flakyServer) handler(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	step := f.steps[min(f.hits, len(f.steps)-1)]
	f.hits++
	f.mu.Unlock()
	if step.truncate {
		w.Header().Set("Content-Length", strconv.Itoa(len(step.body)+512))
		w.WriteHeader(step.status)
		w.Write(step.body)
		return // handler returns early; the connection closes mid-body
	}
	w.WriteHeader(step.status)
	w.Write(step.body)
}

func (f *flakyServer) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

// TestClientRetryTable is the flaky-transport contract: transient
// failures (5xx, truncated bodies, corrupt envelopes) are retried or
// re-fetched, permanent ones (4xx) abort immediately with the server's
// reason, and under no script does the client hand back corrupt data.
func TestClientRetryTable(t *testing.T) {
	key := simcache.Key("flaky-entry")
	valid, err := simcache.EncodeEntry(key, map[string]int{"v": 42})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x01

	tests := []struct {
		name     string
		steps    []flakyStep
		op       func(c *Client) (ok bool, err error)
		wantOK   bool
		wantErr  string // substring of the expected error ("" = success)
		wantHits int    // exact request count, 0 = don't check
		wantLost bool   // error must satisfy errors.Is(err, ErrLeaseLost)
	}{
		{
			name: "5xx then success is retried",
			steps: []flakyStep{
				{status: 503, body: []byte(`{"error":"warming up"}`)},
				{status: 503, body: []byte(`{"error":"warming up"}`)},
				{status: 200, body: valid},
			},
			op:       getEntry(key),
			wantOK:   true,
			wantHits: 3,
		},
		{
			name:    "persistent 5xx surfaces the server reason",
			steps:   []flakyStep{{status: 503, body: []byte(`{"error":"disk full"}`)}},
			op:      getEntry(key),
			wantErr: "disk full",
		},
		{
			name: "truncated body is retried",
			steps: []flakyStep{
				{status: 200, body: valid[:len(valid)/2], truncate: true},
				{status: 200, body: valid},
			},
			op:       getEntry(key),
			wantOK:   true,
			wantHits: 2,
		},
		{
			name: "wrong checksum is re-fetched",
			steps: []flakyStep{
				{status: 200, body: corrupt},
				{status: 200, body: valid},
			},
			op:       getEntry(key),
			wantOK:   true,
			wantHits: 2,
		},
		{
			name:    "persistent corruption is an actionable error, never data",
			steps:   []flakyStep{{status: 200, body: corrupt}},
			op:      getEntry(key),
			wantErr: "checksum",
		},
		{
			name:     "404 is a miss, not an error, not retried",
			steps:    []flakyStep{{status: 404, body: []byte(`{"error":"no entry"}`)}},
			op:       getEntry(key),
			wantOK:   false,
			wantHits: 1,
		},
		{
			name:     "4xx aborts immediately with the server reason",
			steps:    []flakyStep{{status: 400, body: []byte(`{"error":"key is not a SHA-256 hex digest"}`)}},
			op:       getEntry(key),
			wantErr:  "SHA-256",
			wantHits: 1,
		},
		{
			name: "PUT retries through a 5xx",
			steps: []flakyStep{
				{status: 502, body: []byte(`{"error":"bad gateway"}`)},
				{status: 200, body: []byte(`{"ok":true}`)},
			},
			op: func(c *Client) (bool, error) {
				return true, c.PutEntryRaw(key, valid)
			},
			wantOK:   true,
			wantHits: 2,
		},
		{
			name:  "claim response of unknown shape is an error",
			steps: []flakyStep{{status: 200, body: []byte(`{"status":"confused"}`)}},
			op: func(c *Client) (bool, error) {
				_, err := c.ClaimJob("w0")
				return false, err
			},
			wantErr: "unknown status",
		},
		{
			// A daemon mid-restart answers 5xx; the worker's renewal must
			// ride it out, not treat it as a lost lease and stop renewing.
			name: "heartbeat retries through a 5xx without dropping the lease",
			steps: []flakyStep{
				{status: 503, body: []byte(`{"error":"restarting"}`)},
				{status: 200, body: []byte(`{"ok":true,"lease_seconds":60}`)},
			},
			op: func(c *Client) (bool, error) {
				return true, c.Heartbeat(0, "lease-1", "w0")
			},
			wantOK:   true,
			wantHits: 2,
		},
		{
			// The coded 409 is the queue saying "this lease no longer
			// exists" — a protocol answer, surfaced as the typed sentinel
			// and never retried (re-asserting a dead lease is spam).
			name:  "heartbeat 409 lease-lost is typed and not retried",
			steps: []flakyStep{{status: 409, body: []byte(`{"error":"lease was requeued","code":"lease-lost"}`)}},
			op: func(c *Client) (bool, error) {
				return false, c.Heartbeat(0, "lease-1", "w0")
			},
			wantErr:  "requeued",
			wantLost: true,
			wantHits: 1,
		},
		{
			// A restarted daemon that has not (or cannot) reload this
			// manifest answers 404: same worker reaction as a lost lease —
			// stop renewing, finish, complete on the stored proof (or
			// re-register and re-claim) — so the client folds it into the
			// same sentinel rather than panicking on an unknown lease.
			name:  "heartbeat 404 after a daemon restart is a re-claim signal",
			steps: []flakyStep{{status: 404, body: []byte(`{"error":"no manifest with fingerprint deadbeef' is registered"}`)}},
			op: func(c *Client) (bool, error) {
				return false, c.Heartbeat(0, "lease-1", "w0")
			},
			wantErr:  "no manifest",
			wantLost: true,
			wantHits: 1,
		},
		{
			// An uncoded 4xx (malformed request) is a plain client bug,
			// not a lease signal: it must NOT masquerade as ErrLeaseLost.
			name:  "heartbeat 400 is a plain error, not lease-lost",
			steps: []flakyStep{{status: 400, body: []byte(`{"error":"heartbeat body is not JSON"}`)}},
			op: func(c *Client) (bool, error) {
				return false, c.Heartbeat(0, "lease-1", "w0")
			},
			wantErr:  "not JSON",
			wantHits: 1,
		},
		{
			// Completion after a lost lease: the stored-result proof makes
			// it a success on the daemon, and the client treats the 200
			// like any other completion.
			name: "complete succeeds after heartbeat loss via stored proof",
			steps: []flakyStep{
				{status: 200, body: []byte(`{"ok":true}`)},
			},
			op: func(c *Client) (bool, error) {
				return true, c.Complete(0, "stale-lease", "w0")
			},
			wantOK:   true,
			wantHits: 1,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			stub := &flakyServer{steps: tc.steps}
			ts := httptest.NewServer(http.HandlerFunc(stub.handler))
			defer ts.Close()
			c := NewClient(ts.URL).ForManifest(testKey(0))
			c.backoff = time.Millisecond

			ok, err := tc.op(c)
			if tc.wantLost != errors.Is(err, ErrLeaseLost) {
				t.Fatalf("errors.Is(err, ErrLeaseLost) = %v, want %v (err: %v)", !tc.wantLost, tc.wantLost, err)
			}
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("want error containing %q, got success", tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				if tc.wantHits > 0 && stub.count() != tc.wantHits {
					t.Errorf("server saw %d requests, want %d", stub.count(), tc.wantHits)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if ok != tc.wantOK {
				t.Errorf("ok = %v, want %v", ok, tc.wantOK)
			}
			if tc.wantHits > 0 && stub.count() != tc.wantHits {
				t.Errorf("server saw %d requests, want %d", stub.count(), tc.wantHits)
			}
		})
	}
}

// getEntry adapts GetEntryRaw to the table's op shape, asserting any
// returned bytes are the validated envelope.
func getEntry(key string) func(c *Client) (bool, error) {
	return func(c *Client) (bool, error) {
		data, ok, err := c.GetEntryRaw(key)
		if ok {
			if _, valid := simcache.DecodeEntry(data, key); !valid {
				return true, fmt.Errorf("client handed back corrupt bytes as a success")
			}
		}
		return ok, err
	}
}

// TestClientUnreachableServer: a server that is not there at all must
// produce an error naming the operation, not a hang or a panic.
func TestClientUnreachableServer(t *testing.T) {
	c := NewClient("127.0.0.1:1") // reserved port, nothing listens
	c.backoff = time.Millisecond
	c.attempts = 2
	if _, ok, err := c.GetEntryRaw(simcache.Key("nope")); ok || err == nil {
		t.Fatalf("GetEntryRaw against nothing = (ok=%v, err=%v)", ok, err)
	} else if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error does not mention the retry budget: %v", err)
	}
}
