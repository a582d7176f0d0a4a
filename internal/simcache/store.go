package simcache

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file defines the Store abstraction behind distributed sweeps:
// the minimal result-store surface a sweep worker needs, with two
// implementations — the on-disk directory layout of *Cache (this
// package) and the HTTP client of internal/objstore, which pushes and
// pulls the very same checksummed envelopes over the network. Both
// speak content-addressed keys from the same SHA-256 scheme (RunKey,
// MCKey), so a result produced against either store is bit-identical
// wherever it is later read.
//
// It also defines Resolver, the one way a simulation cell becomes a
// stored result: in-process figures (internal/report) resolve their
// matrix cells with it against the local cache, and sweep workers
// (internal/sweep) resolve their claimed jobs with it against the
// daemon's store.

// Store is a result store keyed by this package's content-addressed
// scheme. *Cache (a local directory) and objstore.Client (a remote
// rowswap-cached daemon) both implement it, so sweep execution code is
// agnostic to whether results land on local disk or cross the network.
type Store interface {
	// Get loads the entry for key into v, reporting a miss as
	// (false, nil). Corrupt entries must surface as misses, never as
	// silently wrong data.
	Get(key string, v any) (bool, error)
	// Put stores v under key.
	Put(key string, v any) error
}

// BestEffort returns c as a Store whose Put never fails: a local cache
// that cannot be written (a full disk, a read-only directory) must not
// fail a successful simulation. A nil c misses every Get.
func BestEffort(c *Cache) Store { return bestEffort{c} }

type bestEffort struct{ *Cache }

func (b bestEffort) Put(key string, v any) error {
	_ = b.Cache.Put(key, v)
	return nil
}

// Resolution says how Resolver.Resolve produced a result.
type Resolution int

const (
	// Simulated: sim.Run ran the cell (sim.RunTaped for a baseline).
	Simulated Resolution = iota
	// Stored: the store already held the cell's entry.
	Stored
	// Derived: the cell is its baseline relabelled (sim.Resume by
	// Derive's bound or by replaying the baseline's tape).
	Derived
	// Resumed: the event kernel restarted from one of the baseline's
	// checkpoints (sim.Resume).
	Resumed
	// Memoized: an earlier or concurrent call of the same Resolver
	// resolved this cell; the result is that call's.
	Memoized
)

// String names the resolution as progress output says it.
func (r Resolution) String() string {
	switch r {
	case Simulated:
		return "simulated"
	case Stored:
		return "from store"
	case Derived:
		return "derived"
	case Resumed:
		return "resumed"
	case Memoized:
		return "memoized"
	}
	return fmt.Sprintf("Resolution(%d)", int(r))
}

// Resolver resolves simulation cells against a Store, each cell once
// per Resolver however many callers ask at once: later callers wait and
// get Memoized, with the first call's result or error, for as long as
// the Resolver lives. A cell already in the store is read. An
// unprotected baseline is otherwise simulated with sim.RunTaped, and
// the Resolver keeps it, tape included. A mitigated cell sim.Derivable
// covers is built from its baseline, which the Resolver resolves first,
// by sim.Resume: Derive's bound, then a replay of the baseline's tape,
// then a restart from one of its checkpoints. It is simulated only when
// Resume refuses, e.g. because its baseline came from the store without
// a tape. Every result, a baseline resolved for a sibling included, is
// then Put under its RunKey; a failed Put is an error (wrap a local
// cache in BestEffort to ignore it).
//
// The memo trusts that a cell it resolved is in the store. Where every
// result must land in the store, as a sweep's must, scope a Resolver to
// that store: a sweep worker holds one per call, not one per process.
// The zero Resolver is ready to use.
type Resolver struct {
	cells sync.Map // RunKey -> *flight

	simulated, derived, resumed, instructions atomic.Int64
}

type flight struct {
	once sync.Once
	res  *sim.Result
	err  error
}

// Counts says how a Resolver resolved its cells. Cells read from the
// store count as none of Simulated, Derived and Resumed.
type Counts struct {
	// Simulated cells ran sim.Run; Derived ones were relabelled from
	// their baseline (sim.Derive, or sim.Resume when the tracker never
	// acts); Resumed ones restarted from a baseline checkpoint
	// (sim.Resume).
	Simulated, Derived, Resumed int64
	// Instructions is how many budgeted instructions the simulated and
	// resumed cells ran through the kernel: a resumed cell counts only
	// those after its checkpoint.
	Instructions int64
}

// Counts returns how many cells r has simulated, derived and resumed.
func (r *Resolver) Counts() Counts {
	return Counts{
		Simulated:    r.simulated.Load(),
		Derived:      r.derived.Load(),
		Resumed:      r.resumed.Load(),
		Instructions: r.instructions.Load(),
	}
}

// Resolve returns the result of sim.Run(w, sys, opt), resolved from s
// as the Resolver doc says, and how it was resolved. Results are
// deterministic functions of their inputs, so the result is Run's
// whichever way it was resolved, host instrumentation aside.
func (r *Resolver) Resolve(s Store, w trace.Workload, sys config.System, opt sim.Options) (*sim.Result, Resolution, error) {
	key := RunKey(w, sys, opt)
	v, _ := r.cells.LoadOrStore(key, &flight{})
	f := v.(*flight)
	how := Memoized
	f.once.Do(func() { f.res, how, f.err = r.resolve(s, key, w, sys, opt) })
	return f.res, how, f.err
}

func (r *Resolver) resolve(s Store, key string, w trace.Workload, sys config.System, opt sim.Options) (*sim.Result, Resolution, error) {
	var stored sim.Result
	if hit, err := s.Get(key, &stored); err == nil && hit {
		return &stored, Stored, nil
	}
	res, how := r.resume(s, w, sys, opt)
	if res == nil {
		// RunTaped tapes only an unprotected baseline.
		var err error
		if res, err = sim.RunTaped(w, sys, opt); err != nil {
			return nil, Simulated, err
		}
		how = Simulated
	}
	if err := s.Put(key, res); err != nil {
		return nil, how, fmt.Errorf("simcache: store result for key %.12s…: %w", key, err)
	}
	switch how {
	case Simulated:
		r.simulated.Add(1)
		r.instructions.Add(res.Instructions)
	case Derived:
		r.derived.Add(1)
	case Resumed:
		r.resumed.Add(1)
		r.instructions.Add(res.Resume.Instructions)
	}
	return res, how, nil
}

// resume builds a mitigated cell from its baseline by sim.Resume,
// resolving the baseline first, or returns nil when it cannot.
func (r *Resolver) resume(s Store, w trace.Workload, sys config.System, opt sim.Options) (*sim.Result, Resolution) {
	if !sim.Derivable(sys.Mitigation) {
		return nil, Simulated
	}
	rb, _, err := r.Resolve(s, w, baselineOf(sys), opt)
	if err != nil {
		return nil, Simulated
	}
	res, ok := sim.Resume(rb, w, sys, opt)
	switch {
	case !ok:
		return nil, Simulated
	case res.Resume.How == sim.ResumeRestart:
		return res, Resumed
	}
	return res, Derived
}

// baselineOf returns sys unprotected: the system a cell normalizes
// against.
func baselineOf(sys config.System) config.System {
	sys.Mitigation = config.Mitigation{}
	return sys
}

// DecodeEntry validates serialized entry bytes (one envelope, exactly
// what a segment line holds) against key and
// returns the payload. It is the exported face of the cache's single
// decoding path, so network transports enforce the same schema, key,
// and checksum gates as local reads: malformed input of any shape is
// !ok, never a panic or a wrong payload.
func DecodeEntry(data []byte, key string) (json.RawMessage, bool) {
	return decodeEnvelope(data, key)
}

// EncodeEntry serializes v into the one-line checksummed envelope for
// key — the exact line Put would append to disk, so an entry shipped
// over the network is byte-identical to one written locally.
func EncodeEntry(key string, v any) ([]byte, error) {
	return encodeEnvelope(key, v)
}

// GetRaw returns the validated envelope bytes stored for key. Network
// servers use it to serve entries verbatim, preserving checksums end
// to end.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	data, _, ok := c.read(key)
	return data, ok
}

// ErrInvalidEntry marks entry bytes PutRaw refused because they fail
// validation (schema, key, or checksum), as opposed to a failure of
// the store itself.
var ErrInvalidEntry = errors.New("simcache: entry bytes fail validation (schema, key, or checksum)")

// PutRaw validates already-encoded envelope bytes against key and
// appends them verbatim. Invalid bytes are rejected with an error
// wrapping ErrInvalidEntry and never written, so an upload path built
// on PutRaw can not poison the store.
func (c *Cache) PutRaw(key string, data []byte) error {
	if c == nil {
		return nil
	}
	if _, ok := decodeEnvelope(data, key); !ok {
		return fmt.Errorf("%w: refusing to store key %.12s…", ErrInvalidEntry, key)
	}
	return c.appendEntry(key, data)
}
