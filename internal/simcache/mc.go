package simcache

import (
	"encoding/json"
	"fmt"

	"repro/internal/attack"
)

// This file is the tally-envelope side of the store: Monte-Carlo trial
// batches (internal/attack) ride the exact same content-addressed,
// checksummed envelope machinery as simulation results, so a security
// sweep shares its transport, daemon, and merge plumbing with the
// performance sweep. The payload codec is attack.EncodeTally /
// DecodeTally — strict in both directions, so a corrupt or hostile
// tally envelope is rejected before it can fold into a merged figure.

// MCKey returns the content-addressed key of one Monte-Carlo trial
// batch: SHA-256 over the full trial spec (model parameters and round
// count), the cell's root seed, the batch index, and the batch's trial
// count — plus, via Key, the schema version and binary fingerprint.
// Everything that could change a single draw is part of the identity.
func MCKey(spec attack.TrialSpec, root uint64, batch, trials int) string {
	return Key("attack.MonteCarlo", spec, root, batch, trials)
}

// RunMCBatch is the trial-batch analogue of Resolver.Resolve: a hit
// returns the stored tally without running anything, a miss runs the
// seeded batch and stores its tally (strict put — in a distributed
// sweep the store is the delivery channel). Stored tallies pass the
// strict decoder on the way out; an entry whose envelope checksums but
// whose tally violates its invariants is treated as a miss and
// recomputed, never returned.
func RunMCBatch(s Store, spec attack.TrialSpec, root uint64, batch, trials int) (attack.Tally, bool, error) {
	if s == nil {
		return spec.RunBatch(root, batch, trials), false, nil
	}
	key := MCKey(spec, root, batch, trials)
	var raw json.RawMessage
	if hit, err := s.Get(key, &raw); err == nil && hit {
		if t, derr := attack.DecodeTally(raw); derr == nil {
			return t, true, nil
		}
	}
	t := spec.RunBatch(root, batch, trials)
	payload, err := attack.EncodeTally(t)
	if err != nil {
		return attack.Tally{}, false, fmt.Errorf("simcache: encode tally for key %.12s…: %w", key, err)
	}
	if err := s.Put(key, json.RawMessage(payload)); err != nil {
		return attack.Tally{}, false, fmt.Errorf("simcache: store tally for key %.12s…: %w", key, err)
	}
	return t, false, nil
}

// GetTally reads and strictly decodes the tally stored under key,
// reporting a miss for absent entries and an error for present-but-
// invalid ones — the merge stage's posture: a corrupt tally must fail
// the merge loudly, never silently re-run or fold garbage.
func GetTally(s Store, key string) (attack.Tally, bool, error) {
	var raw json.RawMessage
	hit, err := s.Get(key, &raw)
	if err != nil || !hit {
		return attack.Tally{}, hit, err
	}
	t, derr := attack.DecodeTally(raw)
	if derr != nil {
		return attack.Tally{}, true, fmt.Errorf("simcache: tally entry %.12s… is invalid: %w", key, derr)
	}
	return t, true, nil
}
