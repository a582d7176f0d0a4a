package objstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/simcache"
)

// Client talks to a rowswap-cached server. It implements
// simcache.Store (Get/Put), so a sweep worker can execute
// jobs against the network exactly as it would against a local cache
// directory.
//
// Every request is retried on transport errors, truncated responses,
// and 5xx statuses — all the transient failures a flaky network or a
// restarting server produces — with exponential backoff. Retrying is
// safe throughout: entries are content-addressed (a re-PUT writes
// identical bytes), claims that got lost in flight simply expire into
// the requeue pool, and completions fall back to the
// result-entry-exists proof. 4xx statuses are never retried: they mean
// the request itself is wrong, and the server's reason is surfaced
// verbatim. A response whose envelope fails the checksum gate is
// re-fetched, never silently used.
type Client struct {
	base string
	hc   *http.Client

	// fingerprint names the manifest whose queue the control plane
	// addresses: claim, complete, heartbeat, status, events, figures and
	// manifest go to /m/{fp}/..., so one daemon serves many concurrent
	// sweeps. It is empty until ForManifest binds one. The data plane
	// (entries) is content-addressed and therefore shared across
	// tenants.
	fingerprint string

	// attempts and backoff tune the retry loop; tests shrink them.
	attempts int
	backoff  time.Duration
}

// NewClient returns a client for the server at base (host:port or a
// full http:// URL). It reaches the shared store and the service
// routes; its queue calls fail, without a request, until ForManifest
// (or SoleManifest) binds it to a manifest.
func NewClient(base string) *Client {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base:     base,
		hc:       &http.Client{Timeout: 60 * time.Second},
		attempts: 4,
		backoff:  150 * time.Millisecond,
	}
}

// ForManifest returns a client whose queue control plane is namespaced
// to the manifest with the given fingerprint (ManifestFingerprint of
// its JSON, as returned by Register). The derived client shares the
// retry tuning and the shared data plane of its parent.
func (c *Client) ForManifest(fingerprint string) *Client {
	derived := *c
	derived.fingerprint = fingerprint
	return &derived
}

// Base returns the normalized server URL.
func (c *Client) Base() string { return c.base }

// Fingerprint returns the manifest fingerprint the client's control
// plane is namespaced to ("" = not bound yet).
func (c *Client) Fingerprint() string { return c.fingerprint }

// SoleManifest binds the client to the one manifest the daemon serves,
// found with GET /v1/service, for callers that were given no manifest
// of their own. With none or several registered it fails, naming the
// fingerprints it found.
func (c *Client) SoleManifest() (*Client, error) {
	st, err := c.ServiceStatus()
	if err != nil {
		return nil, err
	}
	if len(st.Manifests) == 1 {
		return c.ForManifest(st.Manifests[0].Fingerprint), nil
	}
	fps := make([]string, len(st.Manifests))
	for i, m := range st.Manifests {
		fps[i] = m.Fingerprint
	}
	return nil, fmt.Errorf("objstore: %s serves %d manifests, not one: [%s]", c.base, len(fps), strings.Join(fps, " "))
}

// ctl sends one queue control-plane request ("claim", "complete",
// "heartbeat", "status", "events", "figures", "manifest") to the
// client's manifest namespace, /m/{fp}/{op}. An unbound client fails
// before any request is sent.
func (c *Client) ctl(method, op string, body []byte) ([]byte, error) {
	if c.fingerprint == "" {
		return nil, fmt.Errorf("objstore: %s %s: the client is not namespaced to a manifest (Client.ForManifest)", method, op)
	}
	return c.do(method, "/m/"+c.fingerprint+"/"+op, body)
}

// errStatus is a non-2xx response with the server's decoded reason and
// machine-readable code, if any.
type errStatus struct {
	code    int
	errCode string
	reason  string
}

func (e *errStatus) Error() string {
	if e.reason != "" {
		return fmt.Sprintf("server returned %d: %s", e.code, e.reason)
	}
	return fmt.Sprintf("server returned %d", e.code)
}

// decodeStatusErr extracts the server's {"error": ..., "code": ...}
// body, if any.
func decodeStatusErr(status int, data []byte) *errStatus {
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(data, &body) == nil {
		return &errStatus{code: status, errCode: body.Code, reason: body.Error}
	}
	return &errStatus{code: status, reason: strings.TrimSpace(string(data))}
}

// do performs one request with the retry policy, returning the
// response body of the final 2xx answer. 4xx answers abort
// immediately; transport errors, short reads, and 5xx answers burn an
// attempt and back off.
func (c *Client) do(method, path string, body []byte) ([]byte, error) {
	var lastErr error
	delay := c.backoff
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			// A truncated body (connection cut mid-response) is as
			// transient as a connect failure: retry.
			lastErr = fmt.Errorf("reading response: %w", err)
			continue
		}
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			return data, nil
		case resp.StatusCode >= 500:
			lastErr = decodeStatusErr(resp.StatusCode, data)
			continue
		default:
			return nil, decodeStatusErr(resp.StatusCode, data)
		}
	}
	return nil, fmt.Errorf("objstore: %s %s failed after %d attempts: %w", method, path, c.attempts, lastErr)
}

// notFound reports whether err is a 404 answer.
func notFound(err error) bool {
	var se *errStatus
	return errors.As(err, &se) && se.code == http.StatusNotFound
}

// fetchEntry fetches and validates the envelope for key exactly once
// per checksum pass, returning the raw bytes and the extracted
// payload. A missing entry is (nil, nil, false, nil). Bytes that fail
// the checksum gate are re-fetched with the same backoff as any other
// transient failure (a proxy or cut transfer can damage a body without
// breaking HTTP); if every attempt is corrupt the error says so rather
// than handing back poison.
func (c *Client) fetchEntry(key string) (data []byte, payload json.RawMessage, ok bool, err error) {
	var lastErr error
	delay := c.backoff
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		data, err := c.do(http.MethodGet, "/v1/entry/"+key, nil)
		if err != nil {
			if notFound(err) {
				return nil, nil, false, nil
			}
			return nil, nil, false, err
		}
		if payload, ok := simcache.DecodeEntry(data, key); ok {
			return data, payload, true, nil
		}
		lastErr = fmt.Errorf("objstore: entry %.12s… from %s fails the checksum gate; refusing the corrupt bytes", key, c.base)
	}
	return nil, nil, false, lastErr
}

// GetEntryRaw fetches the validated envelope bytes for key. A missing
// entry is (nil, false, nil).
func (c *Client) GetEntryRaw(key string) ([]byte, bool, error) {
	data, _, ok, err := c.fetchEntry(key)
	return data, ok, err
}

// PutEntryRaw pushes already-encoded envelope bytes for key.
func (c *Client) PutEntryRaw(key string, data []byte) error {
	_, err := c.do(http.MethodPut, "/v1/entry/"+key, data)
	return err
}

// Get implements simcache.Store: load the entry for key into v,
// reporting a miss as (false, nil).
func (c *Client) Get(key string, v any) (bool, error) {
	_, payload, ok, err := c.fetchEntry(key)
	if err != nil || !ok {
		return false, err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return false, fmt.Errorf("objstore: entry %.12s… payload does not decode: %w", key, err)
	}
	return true, nil
}

// Put implements simcache.Store: envelope v and push it.
func (c *Client) Put(key string, v any) error {
	data, err := simcache.EncodeEntry(key, v)
	if err != nil {
		return err
	}
	return c.PutEntryRaw(key, data)
}

// ManifestJSON fetches the manifest behind the client's namespace, so
// a worker machine needs only the binary and the server URL.
func (c *Client) ManifestJSON() ([]byte, error) {
	return c.ctl(http.MethodGet, "manifest", nil)
}

// Register registers raw manifest JSON with the service (idempotent:
// re-registering an already-known manifest is a no-op that reports
// Existing). The returned fingerprint names the sweep's namespace —
// chain with ForManifest to get the namespaced client.
func (c *Client) Register(raw []byte) (RegisterResponse, error) {
	data, err := c.do(http.MethodPost, "/v1/register", raw)
	if err != nil {
		return RegisterResponse{}, err
	}
	var resp RegisterResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return RegisterResponse{}, fmt.Errorf("objstore: register response does not decode: %w", err)
	}
	if resp.Fingerprint == "" {
		return RegisterResponse{}, fmt.Errorf("objstore: register response carries no fingerprint")
	}
	return resp, nil
}

// ClaimJob asks the queue for work on behalf of worker.
func (c *Client) ClaimJob(worker string) (ClaimResponse, error) {
	body, err := json.Marshal(claimRequest{Worker: worker})
	if err != nil {
		return ClaimResponse{}, err
	}
	data, err := c.ctl(http.MethodPost, "claim", body)
	if err != nil {
		return ClaimResponse{}, err
	}
	var resp ClaimResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return ClaimResponse{}, fmt.Errorf("objstore: claim response does not decode: %w", err)
	}
	switch resp.Status {
	case ClaimJob:
		if resp.Claim == nil {
			return ClaimResponse{}, fmt.Errorf("objstore: claim response grants a job but carries none")
		}
	case ClaimWait, ClaimDone:
	default:
		return ClaimResponse{}, fmt.Errorf("objstore: claim response has unknown status %q", resp.Status)
	}
	return resp, nil
}

// Complete reports a claimed job finished.
func (c *Client) Complete(job int, lease, worker string) error {
	body, err := json.Marshal(completeRequest{Job: job, Lease: lease, Worker: worker})
	if err != nil {
		return err
	}
	_, err = c.ctl(http.MethodPost, "complete", body)
	return err
}

// Heartbeat renews the lease on a claimed job. Transient failures
// (transport errors, 5xx) are retried with backoff like every other
// request, so a daemon hiccup does not cost the worker its lease. A
// lease the daemon no longer holds — expired and requeued, or wiped by
// a restart — surfaces as an error wrapping ErrLeaseLost: the worker
// should stop renewing and let completion fall back to the
// stored-result proof (or re-claim). So does an unknown-manifest 404,
// which is what a namespaced heartbeat hits when the daemon restarted
// without reloading this sweep.
func (c *Client) Heartbeat(job int, lease, worker string) error {
	body, err := json.Marshal(heartbeatRequest{Job: job, Lease: lease, Worker: worker})
	if err != nil {
		return err
	}
	_, err = c.ctl(http.MethodPost, "heartbeat", body)
	var se *errStatus
	if errors.As(err, &se) && (se.errCode == codeLeaseLost || se.code == http.StatusNotFound) {
		return fmt.Errorf("%w: %s", ErrLeaseLost, se.reason)
	}
	return err
}

// Events tails the completion feed of the client's namespace: every
// completion after cursor (the last Seq already seen; 0 = from the
// start), long-polling up to wait when nothing is new. An empty answer
// means "nothing yet, poll again from the same cursor". A cursor ahead
// of the server's log — the daemon restarted and rebuilt a shorter
// feed — makes the server replay from the start; fold the replayed
// events idempotently and resume from the new Seq. wait must stay
// below the client's 60 s request timeout; the server additionally
// caps it at 30 s.
func (c *Client) Events(cursor int, wait time.Duration) ([]Event, error) {
	data, err := c.ctl(http.MethodGet, fmt.Sprintf("events?cursor=%d&wait_ms=%d", cursor, wait.Milliseconds()), nil)
	if err != nil {
		return nil, err
	}
	return DecodeEvents(data)
}

// DecodeEvents decodes a completion feed body (NDJSON, one Event per
// line) as served by GET /m/{fp}/events. Exported
// alongside the status decoders so it can be fuzzed directly: any
// input yields events or an error, never a panic, and a decoded event
// always carries a positive Seq and a well-formed key.
func DecodeEvents(data []byte) ([]Event, error) {
	var evs []Event
	for _, line := range bytes.Split(data, []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("objstore: events feed line does not decode: %w", err)
		}
		if ev.Seq < 1 {
			return nil, fmt.Errorf("objstore: events feed line carries sequence %d; sequences start at 1", ev.Seq)
		}
		if !validKey(ev.Key) {
			return nil, fmt.Errorf("objstore: events feed line (seq %d) carries key %q, not a SHA-256 hex digest", ev.Seq, ev.Key)
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// FiguresJSON fetches the namespace's partial-figure snapshot (a
// sweep.Partial: renderable rows so far plus coverage). 404 means the
// daemon keeps no figure folder for this manifest.
func (c *Client) FiguresJSON() ([]byte, error) {
	return c.ctl(http.MethodGet, "figures", nil)
}

// Status fetches a queue snapshot of the client's namespace.
func (c *Client) Status() (QueueStats, error) {
	data, err := c.ctl(http.MethodGet, "status", nil)
	if err != nil {
		return QueueStats{}, err
	}
	return DecodeQueueStats(data)
}

// DecodeQueueStats decodes one queue snapshot as served by
// /m/{fp}/status. Exported (with DecodeServiceStatus) so the
// decoders that parse daemon answers can be fuzzed directly.
func DecodeQueueStats(data []byte) (QueueStats, error) {
	var st QueueStats
	if err := json.Unmarshal(data, &st); err != nil {
		return QueueStats{}, fmt.Errorf("objstore: status response does not decode: %w", err)
	}
	return st, nil
}

// ServiceStatus fetches the consolidated multi-manifest snapshot
// (GET /v1/service): per-manifest progress, per-worker liveness, and
// store counters.
func (c *Client) ServiceStatus() (ServiceStatus, error) {
	data, err := c.do(http.MethodGet, "/v1/service", nil)
	if err != nil {
		return ServiceStatus{}, err
	}
	return DecodeServiceStatus(data)
}

// DecodeServiceStatus decodes a consolidated service snapshot as
// served by GET /v1/service.
func DecodeServiceStatus(data []byte) (ServiceStatus, error) {
	var st ServiceStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return ServiceStatus{}, fmt.Errorf("objstore: service status does not decode: %w", err)
	}
	return st, nil
}
