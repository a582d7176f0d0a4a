package simcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file defines the Store abstraction behind distributed sweeps:
// the minimal result-store surface a sweep worker needs, with two
// implementations — the on-disk directory layout of *Cache (this
// package) and the HTTP client of internal/objstore, which pushes and
// pulls the very same checksummed envelopes over the network. Both
// speak content-addressed keys from the same SHA-256 scheme (RunKey /
// CostKey), so a result produced against either store is bit-identical
// wherever it is later read.

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
	// RecordCost notes a measured simulation cost (wall-seconds) under
	// a build-independent CostKey. Best-effort: cost feedback is an
	// optimization signal, never a correctness dependency.
	RecordCost(key string, seconds float64)
}

// RecordCost implements Store for the on-disk cache by delegating to
// the measured-cost sidecar. Nil-safe like every *Cache method.
func (c *Cache) RecordCost(key string, seconds float64) {
	c.Costs().Record(key, seconds)
}

// RunCachedStore is RunCached generalized over any Store, with two
// differences. A failed Put is an error, not best-effort: the remote
// store IS the delivery channel of a networked sweep — a worker whose
// push fails must stop rather than complete jobs whose results nobody
// can ever pull. And a mitigated cell whose baseline entry is already
// in the store is derived from it when sim.Derive can prove the two
// runs identical; the baseline itself is never simulated for that.
func RunCachedStore(s Store, w trace.Workload, sys config.System, opt sim.Options) (*sim.Result, bool, error) {
	if s == nil {
		res, err := sim.Run(w, sys, opt)
		return res, false, err
	}
	key := RunKey(w, sys, opt)
	var cached sim.Result
	if hit, err := s.Get(key, &cached); err == nil && hit {
		return &cached, true, nil
	}
	res, ok := deriveFromStore(s, w, sys, opt)
	if !ok {
		var err error
		if res, err = sim.Run(w, sys, opt); err != nil {
			return nil, false, err
		}
	}
	if err := s.Put(key, res); err != nil {
		return nil, false, fmt.Errorf("simcache: store result for key %.12s…: %w", key, err)
	}
	// Costs cross host boundaries here (the store may be a remote
	// daemon fed by a heterogeneous fleet), so the observation is
	// normalized into reference-host seconds before it leaves.
	s.RecordCost(CostKey(w, sys, opt), NormalizeCost(res.WallSeconds))
	return res, false, nil
}

// deriveFromStore builds a mitigated cell's result from its baseline's
// entry in s (sim.Derive), reporting false when the entry is absent or
// does not prove the cell quiet. It reads the store only.
func deriveFromStore(s Store, w trace.Workload, sys config.System, opt sim.Options) (*sim.Result, bool) {
	if !sim.Derivable(sys.Mitigation) {
		return nil, false
	}
	var rb sim.Result
	if hit, err := s.Get(RunKey(w, baselineOf(sys), opt), &rb); err != nil || !hit {
		return nil, false
	}
	return sim.Derive(&rb, sys, opt)
}

// baselineOf returns sys unprotected: the system a cell normalizes
// against.
func baselineOf(sys config.System) config.System {
	sys.Mitigation = config.Mitigation{}
	return sys
}

// DecodeEntry validates serialized entry bytes (one envelope, exactly
// what a loose entry file or a packed line holds) against key and
// returns the payload. It is the exported face of the cache's single
// decoding path, so network transports enforce the same schema, key,
// and checksum gates as local reads: malformed input of any shape is
// !ok, never a panic or a wrong payload.
func DecodeEntry(data []byte, key string) (json.RawMessage, bool) {
	return decodeEnvelope(data, key)
}

// EncodeEntry serializes v into the one-line checksummed envelope for
// key — the exact bytes Put would write to disk, so an entry shipped
// over the network is byte-identical to one written locally.
func EncodeEntry(key string, v any) ([]byte, error) {
	return encodeEnvelope(key, v)
}

// GetRaw returns the validated envelope bytes stored for key, from the
// loose file or the packed index. A corrupt loose entry is deleted
// (like Get) and the packed index consulted instead. Network servers
// use it to serve entries verbatim, preserving checksums end to end.
func (c *Cache) GetRaw(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err == nil {
		if _, ok := decodeEnvelope(data, key); ok {
			return bytes.TrimSpace(data), true
		}
		os.Remove(c.path(key))
	}
	packed, _, ok := c.packedRaw(key)
	return packed, ok
}

// PutRaw validates already-encoded envelope bytes against key and
// persists them as the loose entry file. Invalid bytes are rejected
// with an error and never written, so an upload path built on PutRaw
// can not poison the store.
func (c *Cache) PutRaw(key string, data []byte) error {
	if c == nil {
		return nil
	}
	if _, ok := decodeEnvelope(data, key); !ok {
		return fmt.Errorf("simcache: entry bytes for key %.12s… fail validation (schema, key, or checksum); refusing to store", key)
	}
	return c.writeEntry(key, bytes.TrimSpace(data))
}
