// Package simcache persists simulation results on disk so repeated
// CLI, CI, and benchmark invocations never redo work the simulator has
// already done. The paper's evaluation (§VI) normalizes every mitigated
// run against an unprotected baseline of the same workload, so a full
// figure sweep re-simulates each baseline many times across process
// invocations; with a persistent cache those baselines — and any
// repeated (workload, configuration) cell of the experiment matrix —
// are simulated exactly once per code version.
//
// Entries are content-addressed JSON files under a cache directory.
// The key is a stable SHA-256 over the workload description, the full
// system configuration, the normalized simulation options, and a
// fingerprint of the running binary, so results produced by a different
// build (or a semantically different simulator, see SchemaVersion) can
// never be served. Each entry carries a checksum of its payload;
// corrupted or stale entries are detected on read, deleted, and
// reported as misses so the caller transparently re-simulates, and
// entries orphaned by old binaries are age-pruned on Open.
package simcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SchemaVersion invalidates entries written by semantically different
// versions of the simulator or of this package's envelope format. Bump
// it when sim.Result's meaning changes in a way the binary fingerprint
// cannot capture (it normally can: any rebuild changes the fingerprint).
// Version 2: sim.BankWindow gained MaxGroupACT, which sim.Derive trusts
// for Hydra-tracked cells.
const SchemaVersion = 2

// codeVersion fingerprints the running binary: two different builds of
// the simulator must never share cache entries, because any code change
// may change simulation results. Hashing the executable covers both the
// repository's own code and its toolchain. The fallback string only
// weakens invalidation to SchemaVersion when the binary is unreadable.
var codeVersion = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown-binary"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown-binary"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown-binary"
	}
	return hex.EncodeToString(h.Sum(nil))
})

// CodeVersion returns the fingerprint of the running binary that Key
// folds into every cache key. Distributed sweeps (internal/sweep)
// record it in their job manifests so a worker built from different
// code can be rejected up front instead of silently producing keys
// nobody else can read.
func CodeVersion() string { return codeVersion() }

// Key derives a stable cache key from the given parts: a SHA-256 over
// their canonical JSON encoding together with SchemaVersion and the
// binary fingerprint. Parts must JSON-encode deterministically (structs
// of scalars and slices do; Go maps are encoded with sorted keys).
func Key(parts ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(SchemaVersion)
	enc.Encode(codeVersion())
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			// Unencodable keys must never alias an encodable one.
			io.WriteString(h, "\x00unencodable\x00"+err.Error())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DefaultDir returns the conventional per-user cache directory for this
// repository's tools, or "" when the OS provides no user cache location
// (which disables caching).
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "rowswap-sim")
}

// Cache is a directory of persisted results. A nil *Cache is valid and
// behaves as an always-miss, never-store cache, so call sites need no
// "caching disabled" branches.
//
// Entries live in two forms: one loose JSON file per result (written
// by Put) and packed index files (*.pack, written by PackLoose) that
// hold many entries in a single file so a sweep of thousands of cells
// stops costing a directory scan per process start. Get serves from
// either; loose entries win when a key exists in both.
type Cache struct {
	dir string

	// costs is the measured-cost sidecar (costs.go): wall-seconds per
	// simulation, keyed without the binary fingerprint so sweep planning
	// can shard by costs measured under earlier builds.
	costs *CostIndex

	// mu guards packed. Gets from the matrix worker pool run
	// concurrently; pack mutations (Open, PackLoose, a corrupt packed
	// entry being dropped) are rare.
	mu     sync.RWMutex
	packed map[string]packRef
}

// pruneAge bounds the cache's growth: every rebuild of the simulator
// changes the binary fingerprint and orphans all prior entries (they
// can never be read again), so Open sweeps entries that have not been
// touched for this long. Re-simulating an expired entry is always
// cheap relative to carrying stale files forever.
const pruneAge = 14 * 24 * time.Hour

// Open returns a cache rooted at dir, creating the directory if
// needed, best-effort prunes entries orphaned by old binaries (see
// pruneAge), and indexes any packed entry files.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cache{dir: dir, packed: map[string]packRef{}, costs: OpenCostIndex(dir)}
	c.prune(time.Now().Add(-pruneAge))
	c.scanPacks()
	return c, nil
}

// Costs returns the cache's measured-cost sidecar index (nil for a nil
// cache, so call sites need no disabled-cache branches).
func (c *Cache) Costs() *CostIndex {
	if c == nil {
		return nil
	}
	return c.costs
}

// prune removes entry, pack, and temp files last modified before
// cutoff. Failures are ignored: pruning is hygiene, not correctness.
func (c *Cache) prune(cutoff time.Time) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch filepath.Ext(name) {
		case ".json", ".tmp", ".pack":
		default:
			continue
		}
		if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(c.dir, name))
		}
	}
}

// Dir returns the cache's root directory ("" for a nil cache).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// envelope wraps a payload with the integrity metadata Get verifies.
type envelope struct {
	Schema  int             `json:"schema"`
	Key     string          `json:"key"`
	Sum     string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

func payloadSum(p []byte) string {
	s := sha256.Sum256(p)
	return hex.EncodeToString(s[:])
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// decodeEnvelope validates the serialized entry data against key and
// returns its payload. It is the single decoding path for loose files,
// packed entries, and imported shards, so every read — whatever the
// storage form — enforces the same schema, key, and checksum gates.
// Malformed input of any shape (truncated, non-JSON, flipped bits,
// wrong key, stale schema) is reported as !ok, never a panic
// (FuzzReadEntry pins this down).
func decodeEnvelope(data []byte, key string) (json.RawMessage, bool) {
	var e envelope
	if json.Unmarshal(data, &e) != nil ||
		e.Schema != SchemaVersion || e.Key != key || e.Sum != payloadSum(e.Payload) {
		return nil, false
	}
	return e.Payload, true
}

// Get loads the entry for key into v. It returns (false, nil) on a
// miss — including a corrupted, truncated, or stale entry, which is
// deleted so the slot is clean for the re-simulated result. Keys not
// found as loose files are looked up in the packed index.
func (c *Cache) Get(key string, v any) (bool, error) {
	if c == nil {
		return false, nil
	}
	data, err := os.ReadFile(c.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return c.getPacked(key, v), nil
	}
	if err != nil {
		return false, err
	}
	payload, ok := decodeEnvelope(data, key)
	if !ok || json.Unmarshal(payload, v) != nil {
		os.Remove(c.path(key))
		return c.getPacked(key, v), nil
	}
	return true, nil
}

// encodeEnvelope serializes v into a one-line entry for key.
func encodeEnvelope(key string, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{
		Schema:  SchemaVersion,
		Key:     key,
		Sum:     payloadSum(payload),
		Payload: payload,
	})
}

// writeEntry atomically persists already-encoded envelope bytes as the
// loose file for key (temp file + rename), so concurrent matrix
// workers and interrupted processes can never leave a torn entry that
// Get would have to guess about.
func (c *Cache) writeEntry(key string, data []byte) error {
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// Put stores v under key as a loose entry file.
func (c *Cache) Put(key string, v any) error {
	if c == nil {
		return nil
	}
	data, err := encodeEnvelope(key, v)
	if err != nil {
		return err
	}
	return c.writeEntry(key, data)
}
