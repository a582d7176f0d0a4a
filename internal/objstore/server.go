// Package objstore is the networked sweep transport: an HTTP
// content-addressed object store (server and client) keyed by
// internal/simcache's SHA-256 scheme, plus work-stealing job queues
// over evaluation manifests. It is the interchange surface of a
// distributed sweep — workers push each result entry the moment it is
// simulated and the daemon folds them into figure snapshots the merge
// stage reads, so a multi-machine run of the paper's evaluation (§VI)
// needs no copied cache directories — and its claim-as-you-go
// scheduling absorbs stragglers and heterogeneous machines.
//
// The server (cmd/rowswap-cached) is a long-lived, multi-tenant
// evaluation service: any number of manifests can be registered, each
// with its own work-stealing queue over the one shared
// content-addressed store. Every queue route lives under its
// manifest's fingerprint, /m/{fp}/...; only the store, registration
// and the service-wide views live under /v1/.
// Registered manifests are persisted under the store directory and
// done-ness is rebuilt from the store's existing entries on startup,
// so a daemon restart mid-sweep resumes where it stopped instead of
// forgetting every lease. Workers renew their leases with heartbeats;
// a silent worker's lease expires and its job is requeued.
//
// Storage is an ordinary simcache directory, so everything downstream
// — checksummed envelopes, corrupt-entry rejection, the segment index —
// behaves exactly as it does locally, and sweep.Manifest.Merge can
// re-fold a store directory in-process as an oracle for the daemon's
// fold. The client implements simcache.Store, so sweep execution code
// runs the same jobs against a remote store or a local one.
package objstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/simcache"
)

// Request-size ceilings. Entries are one simulation result each (a few
// KB of JSON); control requests are tiny; manifests grow with the job
// count but stay far below the entry ceiling. Anything larger is not
// legitimate traffic.
const (
	maxEntryBytes    = 32 << 20
	maxControlBytes  = 1 << 16
	maxManifestBytes = 32 << 20
)

// manifestSubdir is where registered manifests persist inside the
// store directory ("<fp>.json" each), so a restarted daemon can
// re-register every sweep it was serving. The subdirectory keeps them
// apart from the cache's segment files, which live flat in the
// directory.
const manifestSubdir = "manifests"

// ManifestFingerprint namespaces a manifest in the service: a SHA-256
// over the manifest's canonical JSON (decoded and re-encoded, so
// indentation and key order do not matter — the bytes a worker read
// from disk and the bytes the daemon persisted fingerprint alike).
// Every party that holds the same manifest content derives the same
// fingerprint independently, which is what lets workers address
// /m/{fp}/... without any out-of-band coordination.
func ManifestFingerprint(raw []byte) (string, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("objstore: manifest is not JSON: %w", err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("objstore: manifest does not re-encode: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// decodeManifestJobs extracts the claimable job set from raw manifest
// JSON. The server deliberately understands nothing else about a
// manifest — it never simulates and never interprets a job beyond its
// content-addressed key — so this minimal decode is what keeps one
// daemon binary serving workers of any build. Hostile or corrupt
// manifests are rejected: every key must be a SHA-256 hex digest
// (keys become file paths in the store) and the job set must be
// non-empty and duplicate-free.
func decodeManifestJobs(raw []byte) ([]QueueJob, error) {
	var m struct {
		Jobs []QueueJob `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("objstore: manifest is not JSON: %w", err)
	}
	if len(m.Jobs) == 0 {
		return nil, fmt.Errorf("objstore: manifest lists no jobs")
	}
	seen := make(map[string]int, len(m.Jobs))
	for i, j := range m.Jobs {
		if !validKey(j.Key) {
			return nil, fmt.Errorf("objstore: manifest job %d key %q is not a SHA-256 hex digest", i, j.Key)
		}
		if prev, dup := seen[j.Key]; dup {
			return nil, fmt.Errorf("objstore: manifest jobs %d and %d share key %.12s…; the job set must be deduplicated", prev, i, j.Key)
		}
		seen[j.Key] = i
	}
	return m.Jobs, nil
}

// tenant is one registered manifest's slice of the service: its raw
// manifest bytes and its work-stealing queue. The content-addressed
// store is shared across tenants by design — two sweeps that plan an
// identical cell share its result automatically.
type tenant struct {
	fp       string
	manifest []byte
	queue    *Queue
	// events is the tenant's completion feed (GET events); folder,
	// when non-nil, folds completions into partial figures (GET
	// figures). foldMu serializes the lazy fold drain; foldCursor is
	// how far into events the folder has consumed.
	events     *eventLog
	folder     FigureFolder
	foldMu     sync.Mutex
	foldCursor int
}

// ServerOptions configures NewServer beyond the backing cache.
type ServerOptions struct {
	// Lease bounds how long a claimed job stays invisible to other
	// workers between heartbeats (<= 0: DefaultLease). Shared by every
	// tenant the server registers.
	Lease time.Duration
	// Log, when non-nil, receives one line per claim, completion,
	// upload, and registration.
	Log io.Writer
	// NewFolder, when non-nil, builds a per-tenant figure folder from
	// raw manifest bytes, enabling GET /m/{fp}/figures (partial
	// figures). cmd/rowswap-cached wires sweep.Accumulator in here; the
	// indirection exists because this package cannot import
	// internal/sweep. A manifest NewFolder rejects (foreign schema,
	// jobs-only test manifests) still gets its queue and completion
	// feed — only the figures endpoint answers 404.
	NewFolder func(manifest []byte) (FigureFolder, error)
}

// Server is the store/coordinator daemon's HTTP surface. Storage is a
// plain simcache directory shared by every tenant; scheduling is one
// Queue per registered manifest. All handlers are safe for concurrent
// use.
type Server struct {
	cache     *simcache.Cache
	lease     time.Duration
	mux       *http.ServeMux
	newFolder func(manifest []byte) (FigureFolder, error)

	mu      sync.RWMutex
	tenants map[string]*tenant
	order   []string // registration order, for stable status output

	logMu sync.Mutex
	log   io.Writer
}

// NewServer builds a server over the given cache directory, with no
// manifest registered: Register (or POST /v1/register) adds each one.
func NewServer(cache *simcache.Cache, opt ServerOptions) *Server {
	s := &Server{
		cache:     cache,
		lease:     opt.Lease,
		mux:       http.NewServeMux(),
		newFolder: opt.NewFolder,
		tenants:   map[string]*tenant{},
		log:       opt.Log,
	}
	s.mux.HandleFunc("GET /v1/entry/{key}", s.handleGetEntry)
	s.mux.HandleFunc("PUT /v1/entry/{key}", s.handlePutEntry)
	s.mux.HandleFunc("POST /v1/register", s.handleRegister)
	s.mux.HandleFunc("GET /v1/service", s.handleService)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	// Queue control plane, one namespace per registered manifest.
	s.mux.HandleFunc("GET /m/{fp}/manifest", s.handleManifest)
	s.mux.HandleFunc("POST /m/{fp}/claim", s.handleClaim)
	s.mux.HandleFunc("POST /m/{fp}/complete", s.handleComplete)
	s.mux.HandleFunc("POST /m/{fp}/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("GET /m/{fp}/status", s.handleStatus)
	s.mux.HandleFunc("GET /m/{fp}/events", s.handleEvents)
	s.mux.HandleFunc("GET /m/{fp}/figures", s.handleFigures)
	return s
}

// Register registers raw manifest JSON as a tenant, exactly as POST
// /v1/register does, and reports its fingerprint and job counts. The
// manifest must list a non-empty, duplicate-free set of jobs keyed by
// SHA-256 hex digests; any other input is an error and registers
// nothing. Registration is idempotent: an already-registered manifest
// (even reformatted) is left untouched and reported Existing, so
// re-registering one — every worker of a sweep does — never resets a
// queue mid-flight. A new tenant's done-ness is recovered from the
// store and its manifest persisted, so a restarted daemon can reload it.
func (s *Server) Register(raw []byte) (RegisterResponse, error) {
	fp, err := ManifestFingerprint(raw)
	if err != nil {
		return RegisterResponse{}, err
	}
	jobs, err := decodeManifestJobs(raw)
	if err != nil {
		return RegisterResponse{}, err
	}
	s.mu.Lock()
	if tn, ok := s.tenants[fp]; ok {
		s.mu.Unlock()
		return RegisterResponse{Fingerprint: fp, Jobs: len(tn.queue.jobs), Existing: true}, nil
	}
	tn := &tenant{fp: fp, manifest: raw, queue: NewQueue(jobs, s.lease), events: newEventLog()}
	// Hooks are wired before the tenant is published: every done
	// transition — completions, store reconciliation, and the recovery
	// pass below — lands in the completion feed, so an events client
	// starting from cursor zero sees the sweep's full history.
	events := tn.events
	tn.queue.onDone = func(job int, key string) { events.append(key) }
	tn.queue.stored = s.cache.Has
	if s.newFolder != nil {
		folder, err := s.newFolder(raw)
		if err != nil {
			s.logf("manifest %.12s…: no figure folder (%v); events and queue still served", fp, err)
		} else {
			tn.folder = folder
		}
	}
	s.tenants[fp] = tn
	s.order = append(s.order, fp)
	s.mu.Unlock()

	recovered := tn.queue.RecoverStored(s.cache.Has)
	s.persistManifest(fp, raw)
	s.logf("registered manifest %.12s…: %d jobs, %d recovered from store", fp, len(jobs), recovered)
	return RegisterResponse{Fingerprint: fp, Jobs: len(jobs), Recovered: recovered}, nil
}

// persistManifest best-effort writes the manifest bytes under the
// store directory so LoadPersisted can re-register it after a restart.
// Persistence failing (read-only store, full disk) degrades the daemon
// to pre-restartable behavior, never breaks the live sweep.
func (s *Server) persistManifest(fp string, manifest []byte) {
	dir := s.cache.Dir()
	if dir == "" {
		return
	}
	mdir := filepath.Join(dir, manifestSubdir)
	if err := os.MkdirAll(mdir, 0o755); err != nil {
		s.logf("persist manifest %.12s…: %v", fp, err)
		return
	}
	if err := os.WriteFile(filepath.Join(mdir, fp+".json"), manifest, 0o644); err != nil {
		s.logf("persist manifest %.12s…: %v", fp, err)
	}
}

// LoadPersisted re-registers every manifest persisted under the store
// directory by an earlier daemon process, rebuilding each tenant's
// done-ness from the store's entries. It returns how many tenants were
// loaded. Files that no longer parse (or whose name does not match
// their content's fingerprint) are skipped with a log line — a corrupt
// leftover must not take down the sweeps that are fine.
func (s *Server) LoadPersisted() int {
	dir := s.cache.Dir()
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(filepath.Join(dir, manifestSubdir))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, manifestSubdir, e.Name()))
		if err != nil {
			s.logf("reload %s: %v", e.Name(), err)
			continue
		}
		fp, err := ManifestFingerprint(raw)
		if err != nil || fp+".json" != e.Name() {
			s.logf("reload %s: not a persisted manifest (fingerprint mismatch); skipping", e.Name())
			continue
		}
		reg, err := s.Register(raw)
		if err != nil {
			s.logf("reload %s: %v", e.Name(), err)
			continue
		}
		if !reg.Existing {
			n++
		}
	}
	return n
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Jobs returns the total job count across every registered tenant.
func (s *Server) Jobs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, tn := range s.tenants {
		n += len(tn.queue.jobs)
	}
	return n
}

// tenantFor resolves a request's tenant from the path's {fp} value.
// nil means the fingerprint is unknown — the caller answers 404 so the
// client can tell "wrong daemon / not registered" from a malformed
// request.
func (s *Server) tenantFor(fp string) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[fp]
}

func (s *Server) logf(format string, args ...any) {
	if s.log == nil {
		return
	}
	s.logMu.Lock()
	fmt.Fprintf(s.log, format+"\n", args...)
	s.logMu.Unlock()
}

// validKey gates every key-carrying route: keys are SHA-256 hex
// digests, nothing else. Tenant fingerprints pass the same gate before
// becoming file names, which keeps a hostile one from escaping the
// store directory.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// httpError sends a JSON error body so clients can surface the
// server's reason verbatim. code2, when non-empty, is a
// machine-readable discriminator (e.g. codeLeaseLost) the client maps
// to a typed error.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	httpErrorCoded(w, code, "", format, args...)
}

func httpErrorCoded(w http.ResponseWriter, code int, errCode, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": fmt.Sprintf(format, args...)}
	if errCode != "" {
		body["code"] = errCode
	}
	json.NewEncoder(w).Encode(body)
}

// codeLeaseLost marks a 409 as "this lease no longer exists" (expired
// and requeued, already done, or pre-restart), as opposed to a
// malformed request. The client surfaces it as ErrLeaseLost so workers
// can react (stop heartbeating, rely on the stored-result proof)
// without string-matching error text.
const codeLeaseLost = "lease-lost"

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// unknownTenant answers a queue-route request whose fingerprint no
// registered manifest matches.
func unknownTenant(w http.ResponseWriter, fp string) {
	httpError(w, http.StatusNotFound, "no manifest with fingerprint %.12s… is registered; POST it to /v1/register first", fp)
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r.PathValue("fp"))
	if tn == nil {
		unknownTenant(w, r.PathValue("fp"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(tn.manifest)
}

func (s *Server) handleGetEntry(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		httpError(w, http.StatusBadRequest, "key %q is not a SHA-256 hex digest", key)
		return
	}
	data, ok := s.cache.GetRaw(key)
	if !ok {
		httpError(w, http.StatusNotFound, "no entry for key %.12s…", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handlePutEntry(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !validKey(key) {
		httpError(w, http.StatusBadRequest, "key %q is not a SHA-256 hex digest", key)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading entry body: %v", err)
		return
	}
	// PutRaw re-validates schema, key, and checksum; a corrupt push is
	// rejected here and never touches the store. A store that fails to
	// write answers 5xx, which the client retries.
	if err := s.cache.PutRaw(key, data); errors.Is(err, simcache.ErrInvalidEntry) {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	} else if err != nil {
		s.logf("storing entry %.12s… failed: %v", key, err)
		httpError(w, http.StatusInternalServerError, "storing entry %.12s…: %v", key, err)
		return
	}
	s.logf("stored entry %.12s… (%d bytes)", key, len(data))
	writeJSON(w, map[string]bool{"ok": true})
}

// RegisterResponse answers POST /v1/register.
type RegisterResponse struct {
	// Fingerprint namespaces the registered manifest: the client's
	// queue routes become /m/{fingerprint}/claim and friends.
	Fingerprint string `json:"fingerprint"`
	// Jobs is the manifest's claimable job count; Recovered of those
	// were already in the store and marked done at registration (0 on
	// re-registration — recovery happens once, when the queue is
	// built). Existing reports whether the manifest was already
	// registered (re-registration is an idempotent no-op).
	Jobs      int  `json:"jobs"`
	Recovered int  `json:"recovered"`
	Existing  bool `json:"existing"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxManifestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading manifest body: %v", err)
		return
	}
	reg, err := s.Register(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, reg)
}

// claimRequest is a worker's claim body.
type claimRequest struct {
	Worker string `json:"worker"`
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r.PathValue("fp"))
	if tn == nil {
		unknownTenant(w, r.PathValue("fp"))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading claim body: %v", err)
		return
	}
	var req claimRequest
	if err := json.Unmarshal(data, &req); err != nil {
		httpError(w, http.StatusBadRequest, "claim body is not JSON ({\"worker\":\"name\"}): %v", err)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "claim body names no worker ({\"worker\":\"name\"})")
		return
	}
	resp := tn.queue.Claim(req.Worker)
	if resp.Status == ClaimJob {
		s.logf("claim[%.12s…]: job %d (%s %s) -> %s", tn.fp, resp.Claim.Job, resp.Claim.Workload, labelOrBaseline(resp.Claim.Label), req.Worker)
	}
	writeJSON(w, resp)
}

// completeRequest is a worker's completion body.
type completeRequest struct {
	Job    int    `json:"job"`
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r.PathValue("fp"))
	if tn == nil {
		unknownTenant(w, r.PathValue("fp"))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading completion body: %v", err)
		return
	}
	var req completeRequest
	if err := json.Unmarshal(data, &req); err != nil {
		httpError(w, http.StatusBadRequest, "completion body is not JSON ({\"job\":N,\"lease\":\"id\",\"worker\":\"name\"}): %v", err)
		return
	}
	if err := tn.queue.Complete(req.Job, req.Lease, req.Worker, s.cache.Has); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	s.logf("complete[%.12s…]: job %d by %s", tn.fp, req.Job, req.Worker)
	writeJSON(w, map[string]bool{"ok": true})
}

// heartbeatRequest is a worker's lease-renewal body — the same triple
// as a completion, because both identify one held lease.
type heartbeatRequest struct {
	Job    int    `json:"job"`
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r.PathValue("fp"))
	if tn == nil {
		unknownTenant(w, r.PathValue("fp"))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxControlBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading heartbeat body: %v", err)
		return
	}
	var req heartbeatRequest
	if err := json.Unmarshal(data, &req); err != nil {
		httpError(w, http.StatusBadRequest, "heartbeat body is not JSON ({\"job\":N,\"lease\":\"id\",\"worker\":\"name\"}): %v", err)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "heartbeat body names no worker")
		return
	}
	if err := tn.queue.Heartbeat(req.Job, req.Lease, req.Worker); err != nil {
		// Lease-lost is the one expected conflict: the worker should
		// stop renewing, finish, and complete on the stored proof.
		httpErrorCoded(w, http.StatusConflict, codeLeaseLost, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"ok": true, "lease_seconds": tn.queue.lease.Seconds()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r.PathValue("fp"))
	if tn == nil {
		unknownTenant(w, r.PathValue("fp"))
		return
	}
	writeJSON(w, tn.queue.Stats())
}

// maxEventWait caps a long-poll's server-side wait, comfortably below
// the client's 60 s request timeout so an idle poll always answers
// with an empty 200 instead of a timed-out connection.
const maxEventWait = 30 * time.Second

// handleEvents serves the completion feed: NDJSON events after
// ?cursor=N, long-polling up to ?wait_ms when nothing is new yet. An
// empty body means "nothing new, poll again from the same cursor".
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r.PathValue("fp"))
	if tn == nil {
		unknownTenant(w, r.PathValue("fp"))
		return
	}
	qv := r.URL.Query()
	cursor := 0
	if raw := qv.Get("cursor"); raw != "" {
		var err error
		if cursor, err = strconv.Atoi(raw); err != nil {
			httpError(w, http.StatusBadRequest, "cursor %q is not an integer", raw)
			return
		}
	}
	// Stats sweeps the queue, which is what reconciles completed-but-
	// unacknowledged leases into the feed — a poll is also a nudge.
	tn.queue.Stats()
	evs := tn.events.since(cursor)
	if len(evs) == 0 {
		if raw := qv.Get("wait_ms"); raw != "" {
			ms, err := strconv.Atoi(raw)
			if err != nil {
				httpError(w, http.StatusBadRequest, "wait_ms %q is not an integer", raw)
				return
			}
			d := time.Duration(ms) * time.Millisecond
			if d > maxEventWait {
				d = maxEventWait
			}
			if d > 0 {
				evs = tn.events.wait(cursor, d)
			}
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, ev := range evs {
		enc.Encode(ev)
	}
}

// handleFigures serves the tenant's partial-figure snapshot. The
// tenant's folder is driven lazily: each request first drains the
// completion feed into the accumulator (off the queue lock — folding
// reads store entries), then snapshots. Folding is idempotent, so
// concurrent requests and feed replays are safe; foldMu only keeps the
// cursor bookkeeping coherent.
func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	tn := s.tenantFor(r.PathValue("fp"))
	if tn == nil {
		unknownTenant(w, r.PathValue("fp"))
		return
	}
	if tn.folder == nil {
		httpError(w, http.StatusNotFound, "no partial figures for this manifest: the daemon has no figure folder for it (started without one, or the manifest is not a sweep manifest this daemon understands)")
		return
	}
	// Reconcile so the snapshot reflects stored reality: Stats marks
	// stored leased jobs done, and an idle queue (nothing leased) also
	// recovers stored pending jobs, pushed by a worker that died before
	// completing them and requeued when its lease expired.
	if st := tn.queue.Stats(); st.Leased == 0 && st.Pending > 0 {
		tn.queue.RecoverStored(s.cache.Has)
	}
	tn.foldMu.Lock()
	for _, ev := range tn.events.since(tn.foldCursor) {
		if _, err := tn.folder.FoldKey(ev.Key, s.cache); err != nil {
			tn.foldMu.Unlock()
			httpError(w, http.StatusInternalServerError, "folding completed entry %.12s…: %v", ev.Key, err)
			return
		}
		tn.foldCursor = ev.Seq
	}
	data, err := tn.folder.PartialJSON()
	tn.foldMu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "snapshotting partial figures: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// ManifestStatus is one tenant's row of the consolidated service
// status: its fingerprint plus the full queue snapshot.
type ManifestStatus struct {
	Fingerprint string `json:"fingerprint"`
	QueueStats
}

// ServiceStatus is the consolidated answer of GET /v1/service:
// per-manifest progress, per-worker liveness merged across manifests,
// and store-level counters — the one screen an operator (or a
// monitoring scrape) needs to see what a multi-sweep daemon is doing.
type ServiceStatus struct {
	Manifests []ManifestStatus       `json:"manifests"`
	Workers   map[string]WorkerStats `json:"workers"`
}

// serviceStatus snapshots every tenant under one view. Worker rows are
// merged across manifests (a fleet worker serves whatever sweep has
// work); liveness is the freshest sighting anywhere.
func (s *Server) serviceStatus() ServiceStatus {
	s.mu.RLock()
	order := append([]string(nil), s.order...)
	s.mu.RUnlock()

	st := ServiceStatus{Workers: map[string]WorkerStats{}}
	for _, fp := range order {
		tn := s.tenantFor(fp)
		if tn == nil {
			continue
		}
		qs := tn.queue.Stats()
		st.Manifests = append(st.Manifests, ManifestStatus{Fingerprint: fp, QueueStats: qs})
		for name, ws := range qs.Workers {
			merged, ok := st.Workers[name]
			if !ok {
				merged = ws
			} else {
				merged.Claimed += ws.Claimed
				merged.Completed += ws.Completed
				merged.Heartbeats += ws.Heartbeats
				merged.ActiveLeases += ws.ActiveLeases
				if ws.IdleSeconds < merged.IdleSeconds {
					merged.IdleSeconds = ws.IdleSeconds
				}
			}
			st.Workers[name] = merged
		}
	}
	return st
}

func (s *Server) handleService(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.serviceStatus())
}

// handleMetrics renders the service counters as plain-text
// "name value" lines (Prometheus exposition style), so a fleet scrape
// needs no JSON walking. Per-manifest series are labeled by
// fingerprint, per-worker liveness by worker name.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.serviceStatus()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var jobs, done, pending, leased, requeues, recovered, stale, reconciled, heartbeats int
	for _, m := range st.Manifests {
		jobs += m.Jobs
		done += m.Done
		pending += m.Pending
		leased += m.Leased
		requeues += m.Requeues
		recovered += m.Recovered
		stale += m.StaleCompletions
		reconciled += m.StoreReconciled
		heartbeats += m.Heartbeats
	}
	fmt.Fprintf(w, "rowswap_manifests %d\n", len(st.Manifests))
	fmt.Fprintf(w, "rowswap_jobs %d\n", jobs)
	fmt.Fprintf(w, "rowswap_jobs_done %d\n", done)
	fmt.Fprintf(w, "rowswap_jobs_pending %d\n", pending)
	fmt.Fprintf(w, "rowswap_jobs_leased %d\n", leased)
	fmt.Fprintf(w, "rowswap_requeues %d\n", requeues)
	fmt.Fprintf(w, "rowswap_recovered %d\n", recovered)
	fmt.Fprintf(w, "rowswap_stale_completions %d\n", stale)
	fmt.Fprintf(w, "rowswap_store_reconciled %d\n", reconciled)
	fmt.Fprintf(w, "rowswap_heartbeats %d\n", heartbeats)
	fmt.Fprintf(w, "rowswap_workers %d\n", len(st.Workers))
	for _, m := range st.Manifests {
		fmt.Fprintf(w, "rowswap_manifest_done{fingerprint=%q} %d\n", m.Fingerprint, m.Done)
		fmt.Fprintf(w, "rowswap_manifest_jobs{fingerprint=%q} %d\n", m.Fingerprint, m.Jobs)
	}
	names := make([]string, 0, len(st.Workers))
	for name := range st.Workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "rowswap_worker_idle_seconds{worker=%q} %g\n", name, st.Workers[name].IdleSeconds)
	}
}

func labelOrBaseline(label string) string {
	if label == "" {
		return "baseline"
	}
	return label
}
