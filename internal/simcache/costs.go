package simcache

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the measured-cost sidecar: a small append-only
// index of how many wall-seconds each simulation actually took, living
// next to the result entries ("costs.jsonl" in the cache directory).
// The sweep coordinator's cost strategy (internal/sweep, -strategy
// cost) consults it to shard by measured cost instead of the static
// heuristic. Unlike result entries, costs are keyed WITHOUT the binary
// fingerprint: a rebuild orphans every cached result (correctness), but
// a workload's relative simulation cost survives rebuilds just fine —
// that is the whole value of the sidecar, since the common sweep
// pattern is plan-with-new-binary after measure-with-old-binary.

// costFileName is the sidecar's file name. The .jsonl extension keeps
// it invisible to the result-entry machinery (loose-entry scans, pack
// import, pruning all match .json/.pack only).
const costFileName = "costs.jsonl"

// CostKey identifies one simulation for cost-measurement purposes: a
// SHA-256 over the workload description, full system configuration, and
// normalized options — the same parts as RunKey, minus the binary
// fingerprint and entry schema, so measured costs survive rebuilds.
func CostKey(w trace.Workload, sys config.System, opt sim.Options) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode("sim.Cost")
	for _, p := range []any{w, sys, opt.Normalized(sys)} {
		if err := enc.Encode(p); err != nil {
			io.WriteString(h, "\x00unencodable\x00"+err.Error())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// costRecord is one line of the sidecar file.
type costRecord struct {
	Key     string  `json:"key"`
	Seconds float64 `json:"seconds"`
}

// CostIndex is the in-memory view of a cache directory's measured-cost
// sidecar. A nil *CostIndex is valid and behaves as an always-miss,
// never-record index. The index is append-only on disk: Record appends
// one JSON line, and loading replays the file with later lines winning,
// so concurrent writers of the same directory at worst duplicate lines
// (every line is self-contained; torn or garbled lines are skipped).
type CostIndex struct {
	path string

	mu     sync.Mutex
	loaded bool
	secs   map[string]float64
}

// OpenCostIndex returns the measured-cost sidecar index of the given
// cache directory, or nil when dir is empty (cost tracking disabled).
// The sidecar file is not read until the index is first consulted, so
// cache opens on hot paths that never look at costs (every
// rowswap-sim/rowswap-figures run) pay nothing for it.
func OpenCostIndex(dir string) *CostIndex {
	if dir == "" {
		return nil
	}
	return &CostIndex{path: filepath.Join(dir, costFileName), secs: map[string]float64{}}
}

// ensureLoaded lazily replays the sidecar file into the in-memory map,
// later lines winning, exactly once. Callers must hold x.mu. Missing or
// unreadable files are fine: the index is an optimization, never a
// correctness dependency.
func (x *CostIndex) ensureLoaded() {
	if x.loaded {
		return
	}
	x.loaded = true
	f, err := os.Open(x.path)
	if err != nil {
		return
	}
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		lines++
		var r costRecord
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Key != "" && r.Seconds > 0 {
			x.secs[r.Key] = r.Seconds
		}
	}
	f.Close()
	// The file is append-only, so long-lived cache directories (a
	// coordinator store fed by every sweep) accumulate superseded
	// estimate lines without bound. Once the replay shows the file is
	// mostly history — past a floor that keeps small sidecars cheap —
	// rewrite it as one line per key.
	if lines >= costCompactMin && lines > 2*len(x.secs) {
		x.compactLocked()
	}
}

// costCompactMin is the line count below which the sidecar is never
// compacted: rewriting a few KB saves nothing, and the floor keeps
// the churn of small test caches and fresh worker shards at zero.
const costCompactMin = 256

// Seconds returns the measured wall-seconds recorded for key.
func (x *CostIndex) Seconds(key string) (float64, bool) {
	if x == nil {
		return 0, false
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLoaded()
	s, ok := x.secs[key]
	return s, ok
}

// Len returns the number of keys with a measured cost.
func (x *CostIndex) Len() int {
	if x == nil {
		return 0
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLoaded()
	return len(x.secs)
}

// costEWMAAlpha weights a new observation against the running
// estimate. Wall-seconds are noisy — host load, thermal state, and
// (across a sweep) heterogeneous worker machines all perturb them — so
// the index keeps an exponentially weighted moving average instead of
// letting the last observation win: repeated measurements converge on
// the workload's true cost, and a stale outlier decays by (1-α) per
// subsequent observation instead of steering LPT forever.
const costEWMAAlpha = 0.4

// Record folds a measured wall-seconds observation for key into the
// index's running estimate (EWMA, see costEWMAAlpha; a first
// observation is taken as-is) and appends the updated estimate to the
// sidecar file — the file stores estimates, not raw observations, so
// replaying it (later lines winning) reproduces the in-memory state
// and importers see already-smoothed values. Recording is best-effort:
// a full disk or read-only directory must not fail the simulation
// whose cost is being noted.
func (x *CostIndex) Record(key string, seconds float64) {
	if x == nil || key == "" || seconds <= 0 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLoaded()
	est := seconds
	if old, ok := x.secs[key]; ok {
		// Fixed-point guards: an observation equal to the current
		// estimate leaves the EWMA where it is (up to float rounding),
		// and a fold that rounds back to the stored estimate carries no
		// new information either. Skipping the append in both cases is
		// what keeps the sidecar from growing on every warm re-merge of
		// the same worker directories.
		if seconds == old {
			return
		}
		est = costEWMAAlpha*seconds + (1-costEWMAAlpha)*old
		if est == old {
			return
		}
	}
	line, err := json.Marshal(costRecord{Key: key, Seconds: est})
	if err != nil {
		return
	}
	x.secs[key] = est
	x.appendLocked(append(line, '\n'))
}

// appendLocked best-effort appends raw sidecar lines. Callers must
// hold x.mu.
func (x *CostIndex) appendLocked(lines []byte) {
	f, err := os.OpenFile(x.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	f.Write(lines)
	f.Close()
}

// exportLocked serializes the in-memory estimates in sidecar format,
// one line per key in sorted order. Callers must hold x.mu.
func (x *CostIndex) exportLocked() []byte {
	keys := make([]string, 0, len(x.secs))
	for k := range x.secs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		line, err := json.Marshal(costRecord{Key: k, Seconds: x.secs[k]})
		if err != nil {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out
}

// compactLocked rewrites the sidecar file as the current one-line-per
// -key export, via temp file + rename so a crash leaves the old or the
// new file, never a torn one. Best-effort like every sidecar write:
// the in-memory state is already correct, compaction only reclaims
// disk. Callers must hold x.mu.
func (x *CostIndex) compactLocked() {
	tmp, err := os.CreateTemp(filepath.Dir(x.path), costFileName+".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(x.exportLocked()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), x.path); err != nil {
		os.Remove(tmp.Name())
	}
}

// ImportFrom merges the measured costs recorded in another cache
// directory (typically a sweep worker's shard output) into this index
// and its sidecar file, returning how many new keys were merged. Keys
// already present are kept (re-merging the same worker directories is
// idempotent and does not grow the file). The sweep merge stage calls
// it so a coordinator's later plan can shard by the costs its workers
// just measured.
func (x *CostIndex) ImportFrom(dir string) int {
	if x == nil {
		return 0
	}
	f, err := os.Open(filepath.Join(dir, costFileName))
	if err != nil {
		return 0
	}
	defer f.Close()
	return x.importRecords(f)
}

// importRecords merges sidecar-format cost lines from r (a worker's
// costs.jsonl) into this index under ImportFrom's keep-existing-keys
// rule, returning how many new keys were merged.
func (x *CostIndex) importRecords(r io.Reader) int {
	if x == nil {
		return 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ensureLoaded()
	// Batch the new records into one append so a thousand-job merge is
	// one open/write/close, not one per record.
	var lines []byte
	n := 0
	for sc.Scan() {
		var r costRecord
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Key == "" || r.Seconds <= 0 {
			continue
		}
		if _, ok := x.secs[r.Key]; ok {
			continue
		}
		line, err := json.Marshal(r)
		if err != nil {
			continue
		}
		x.secs[r.Key] = r.Seconds
		lines = append(lines, line...)
		lines = append(lines, '\n')
		n++
	}
	if len(lines) > 0 {
		x.appendLocked(lines)
	}
	return n
}
