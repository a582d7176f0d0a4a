// Package sweep distributes the paper's experiment matrices across
// worker processes. The evaluation (§VI) is one coherent matrix — 78
// workloads × mitigation configs, shared across Figs. 4/12/14/15/16 and
// the §IX-A comparators — whose cells are independent, deterministic
// simulations, so the sweep is coordinated purely through data: a
// coordinator expands one or more figures into a content-addressed,
// evaluation-wide job manifest (PlanEvaluation) and deduplicates cells
// that several figures share (every figure's unprotected baseline,
// recurring mitigation configs). A rowswap-cached daemon
// (internal/objstore) serves the deduplicated set as a work-stealing
// queue in manifest order, every unprotected baseline first; worker
// processes claim jobs, resolve them the way in-process figures do
// (simcache.Resolver: a mitigated cell is derived or resumed from its
// baseline when it can be), and push each result to the daemon's store
// (RunWork); the daemon folds every
// completed entry into each covered figure's rows as it lands, and
// MergeServer reads that fold back. Because every job is keyed with
// internal/simcache's SHA-256 scheme — workload, system, normalized
// options, and binary fingerprint — the merged rows are bit-identical
// to a single-process run of each figure, whichever worker ran which
// job, and re-running any stage is idempotent. Merge re-folds a store
// directory in-process: the independent oracle for the daemon's fold.
//
// The manifest is generic over job kinds: "run a simulation" and "run
// a batch of Monte-Carlo attack trials" are two implementations of the
// same plan → work-steal → merge pipeline. A manifest may therefore
// span the whole paper — the performance figures' simulation cells and
// the security figures' seeded trial batches — as one deduplicated,
// content-addressed job set. Monte-Carlo results are mergeable tally
// envelopes (attack.Tally) stored alongside simulation entries; the
// fold merges them associatively into MonteCarloResult rows, so the
// distributed run is bit-identical to a single-process oracle
// regardless of completion order.
//
// cmd/rowswap-sweep exposes the stages as plan / work / merge
// subcommands; see its README for a whole-evaluation walkthrough.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// ManifestSchema invalidates manifests written by incompatible versions
// of this package. Schema 3 has generic job kinds and the security
// section. Schema-3 manifests planned when the sweep still sharded at
// plan time also carry "shards" and "strategy" fields and per-job
// "shard" and "cost" fields; decoding ignores them.
const ManifestSchema = 3

// Job kinds. An empty Kind means JobKindSim: perf jobs omit it.
const (
	// JobKindSim: the job is one deduplicated simulation cell of the
	// performance evaluation, keyed by simcache.RunKey.
	JobKindSim = "sim"
	// JobKindMC: the job is one seeded Monte-Carlo trial batch of a
	// security cell, keyed by simcache.MCKey; its result is a mergeable
	// tally envelope (attack.Tally), not a simulation result.
	JobKindMC = "mc"
)

// StrategyRoundRobin names the default plan-time sharding strategy.
//
// Deprecated: jobs are no longer assigned at plan time; PlanEvaluation
// ignores PlanOptions.Strategy.
const StrategyRoundRobin = "round-robin"

// Job is one deduplicated cell of the evaluation: a (workload, system)
// simulation identified by its content-addressed cache key. Simulation
// jobs appear in report.PerfOptions.PlanEvaluation's order: every
// baseline, then every mitigated cell, each in first-occurrence order
// (figures in manifest order, each figure's cells in its matrix order).
// A job shared by several figures — every baseline, any config
// recurring across figures — appears exactly once, with Workload and
// Label taken from its first occurrence.
type Job struct {
	// Kind is the job kind: JobKindSim (or "", its usual spelling) or
	// JobKindMC.
	Kind string `json:"kind,omitempty"`
	// Workload names the trace workload (row of the matrix). Monte-
	// Carlo jobs carry the fixed pseudo-workload "monte-carlo" so
	// per-workload worker stats stay meaningful.
	Workload string `json:"workload"`
	// Label names the mitigation config of the job's first occurrence
	// ("" = unprotected baseline). Figures referencing the same job may
	// spell the config differently; the simulation is identical. For
	// Monte-Carlo jobs it names the security cell and batch.
	Label string `json:"label"`
	// Key is the simcache key the job's result is stored under —
	// SHA-256 over the workload description, full system config,
	// normalized options, and binary fingerprint for simulations; over
	// the trial spec, root seed, batch index, batch size, and binary
	// fingerprint for Monte-Carlo batches (simcache.MCKey).
	Key string `json:"key"`
	// MC locates a Monte-Carlo job's batch within the manifest's
	// security section; nil for simulation jobs.
	MC *MCRef `json:"mc,omitempty"`
}

// MCRef addresses one trial batch of a security cell.
type MCRef struct {
	// Cell indexes Manifest.Security.Cells.
	Cell int `json:"cell"`
	// Batch is the batch index within the cell's trial stream; the
	// batch RNG seed is attack.BatchSeed(cell root seed, Batch).
	Batch int `json:"batch"`
	// Trials is this batch's trial count (the last batch of a cell may
	// be short).
	Trials int `json:"trials"`
}

// kind resolves the job's kind, treating the empty string as
// JobKindSim.
func (j Job) kind() string {
	if j.Kind == "" {
		return JobKindSim
	}
	return j.Kind
}

// desc names a job for error and progress messages.
func (j Job) desc() string {
	label := j.Label
	if label == "" {
		label = "baseline"
	}
	return fmt.Sprintf("%s %s", j.Workload, label)
}

// Figure is one figure's slice of an evaluation manifest: its config
// matrix plus the fan-out map from its own cells to the shared job set.
type Figure struct {
	// Fig is the performance-figure identifier (report.PerfFigureByID);
	// merge uses it to render the figure from its reconstructed rows.
	Fig string `json:"fig"`
	// Configs is the figure's mitigation matrix; Labels its column
	// display order.
	Configs map[string]config.Mitigation `json:"configs"`
	Labels  []string                     `json:"labels"`
	// Cells maps the figure's matrix-cell index (report.MatrixPlan
	// order) to an index into Manifest.Jobs. Several cells of different
	// figures may map to the same job — that is the deduplication.
	Cells []int `json:"cells"`
}

// Manifest is the coordinator's output: the full description of an
// evaluation sweep, sufficient for any worker process (of the same
// build) to re-derive the exact simulation or trial batch behind any
// job it claims, and for the merge stage to audit completeness and
// rebuild every figure. It is plain JSON so it can be shipped to
// remote machines alongside the binary.
type Manifest struct {
	Schema int `json:"schema"`
	// Binary is the coordinating binary's fingerprint
	// (simcache.CodeVersion). Workers refuse a manifest planned by a
	// different build: their cache keys could never match.
	Binary string `json:"binary"`
	// Workloads is the resolved workload-name set, in matrix row order,
	// shared by every figure of the evaluation.
	Workloads []string `json:"workloads"`
	// Cores is the per-workload core count.
	Cores int `json:"cores"`
	// Sim carries the normalized simulation options every job runs with.
	Sim sim.Options `json:"sim"`
	// Figures lists the covered performance figures with their fan-out
	// maps; Jobs is the deduplicated job set they fan out over
	// (simulation jobs first, in evaluation order, then Monte-Carlo
	// batches in security-cell order).
	Figures []Figure `json:"figures"`
	Jobs    []Job    `json:"jobs"`
	// Security describes the manifest's security side; nil for
	// perf-only manifests.
	Security *Security `json:"security,omitempty"`
}

// SecurityFigureRef is one security figure's slice of the manifest:
// its ID plus the fan-out map from its cells to the shared cell set.
type SecurityFigureRef struct {
	// Fig is the security-figure identifier (report.SecurityFigureByID);
	// merge uses it to render the figure from its result rows.
	Fig string `json:"fig"`
	// Cells maps the figure's cell index (report.SecurityFigure.Cells
	// order) to an index into Security.Cells. Empty for closed-form
	// figures, which render without Monte-Carlo results.
	Cells []int `json:"cells,omitempty"`
}

// Security is the manifest's security section: the deduplicated
// Monte-Carlo cell set the security figures fan out over, and the
// trial-stream parameters every cell runs with. Cell ci's root seed is
// report.SecurityCellSeed(Seed, ci); batch b of that cell is seeded by
// attack.BatchSeed(cell root, b) — the derivation both the distributed
// workers and the single-process oracle share.
type Security struct {
	// Seed is the experiment's root seed.
	Seed uint64 `json:"seed"`
	// Trials is the per-cell trial count; Batch the trials-per-batch
	// granularity jobs are cut at.
	Trials int `json:"trials"`
	Batch  int `json:"batch"`
	// Figures lists the covered security figures with their fan-out
	// maps; Cells is the deduplicated cell set they fan out over.
	Figures []SecurityFigureRef   `json:"figures"`
	Cells   []report.SecurityCell `json:"cells,omitempty"`
}

// PlanOptions tunes PlanEvaluation beyond the figure set and the
// experiment options.
type PlanOptions struct {
	// Shards is ignored.
	//
	// Deprecated: workers claim jobs from the daemon's queue; nothing
	// is assigned at plan time.
	Shards int
	// Strategy is ignored.
	//
	// Deprecated: see Shards.
	Strategy string
	// MCTrials is the per-cell Monte-Carlo trial count for security
	// figures (0 = attack.DefaultTrials); MCBatch the trials-per-batch
	// job granularity (0 = attack.DefaultBatch); MCSeed the experiment
	// root seed.
	MCTrials int
	MCBatch  int
	MCSeed   uint64
}

// Plan expands a single figure into a job manifest — the degenerate
// evaluation of one figure, kept as the convenience entry point for
// single-figure sweeps and tests.
func Plan(figID string, opt report.PerfOptions) (*Manifest, error) {
	return PlanEvaluation([]string{figID}, opt, PlanOptions{})
}

// MCWorkload is the pseudo-workload name Monte-Carlo jobs carry in the
// manifest and the daemon's queue stats.
const MCWorkload = "monte-carlo"

// splitFigIDs partitions requested figure IDs into performance and
// security figures, rejecting unknown IDs and duplicates. The two
// catalogues share no IDs; performance wins on lookup order anyway.
func splitFigIDs(figIDs []string) (perfIDs, secIDs []string, err error) {
	seen := map[string]bool{}
	for _, id := range figIDs {
		if seen[id] {
			return nil, nil, fmt.Errorf("sweep: figure %q requested twice", id)
		}
		seen[id] = true
		if _, ok := report.PerfFigureByID(id); ok {
			perfIDs = append(perfIDs, id)
			continue
		}
		if _, ok := report.SecurityFigureByID(id); ok {
			secIDs = append(secIDs, id)
			continue
		}
		return nil, nil, fmt.Errorf("sweep: no figure %q (performance: %v, security: %v)",
			id, report.PerfFigureIDs(), report.SecurityFigureIDs())
	}
	return perfIDs, secIDs, nil
}

// PlanEvaluation expands the given figures — performance, security, or
// a mix — into one deduplicated job manifest without running anything.
// Planning is deterministic: the same figures, options, seed, and
// binary always produce the same manifest, so coordinator and workers
// can independently agree on every job's identity. Simulation jobs
// come first (evaluation order), then every security cell's trial
// batches.
func PlanEvaluation(figIDs []string, opt report.PerfOptions, po PlanOptions) (*Manifest, error) {
	if len(figIDs) == 0 {
		return nil, fmt.Errorf("sweep: no figures requested")
	}
	perfIDs, secIDs, err := splitFigIDs(figIDs)
	if err != nil {
		return nil, err
	}

	m := &Manifest{Schema: ManifestSchema, Binary: simcache.CodeVersion()}
	var jobs []Job

	var eval report.EvaluationPlan
	if len(perfIDs) > 0 {
		figs := make([]report.PerfFigure, len(perfIDs))
		for i, id := range perfIDs {
			figs[i], _ = report.PerfFigureByID(id)
		}
		eval = opt.PlanEvaluation(figs)
		if len(eval.Cells) == 0 {
			return nil, fmt.Errorf("sweep: figures %s expand to an empty matrix", strings.Join(perfIDs, ","))
		}
		names := make([]string, len(eval.Figures[0].Plan.Workloads))
		for i, w := range eval.Figures[0].Plan.Workloads {
			names[i] = w.Name
		}
		m.Workloads = names
		m.Cores = eval.Cells[0].System.Core.Cores
		m.Sim = eval.Sim
		for i, cell := range eval.Cells {
			jobs = append(jobs, Job{
				Workload: cell.Workload.Name,
				Label:    cell.Label,
				Key:      eval.Keys[i],
			})
		}
		mfigs := make([]Figure, len(eval.Figures))
		for fi, fp := range eval.Figures {
			mfigs[fi] = Figure{
				Fig:     fp.Figure.ID,
				Configs: fp.Figure.Configs,
				Labels:  fp.Figure.Labels,
				Cells:   fp.Cells,
			}
		}
		m.Figures = mfigs
	}

	if len(secIDs) > 0 {
		sec, err := report.PlanSecurity(secIDs)
		if err != nil {
			return nil, err
		}
		trials, batch := po.MCTrials, po.MCBatch
		if trials <= 0 {
			trials = attack.DefaultTrials
		}
		if batch <= 0 {
			batch = attack.DefaultBatch
		}
		sfigs := make([]SecurityFigureRef, len(sec.Figures))
		for fi, fp := range sec.Figures {
			sfigs[fi] = SecurityFigureRef{Fig: fp.Figure.ID, Cells: fp.Cells}
		}
		m.Security = &Security{
			Seed:    po.MCSeed,
			Trials:  trials,
			Batch:   batch,
			Figures: sfigs,
			Cells:   sec.Cells,
		}
		for ci, cell := range sec.Cells {
			root := report.SecurityCellSeed(po.MCSeed, ci)
			for b := 0; b*batch < trials; b++ {
				n := batch
				if rem := trials - b*batch; n > rem {
					n = rem
				}
				jobs = append(jobs, Job{
					Kind:     JobKindMC,
					Workload: MCWorkload,
					Label:    fmt.Sprintf("%s batch %d", cell.Label, b),
					Key:      simcache.MCKey(cell.Spec, root, b, n),
					MC:       &MCRef{Cell: ci, Batch: b, Trials: n},
				})
			}
		}
	}
	if m.Security == nil && len(m.Figures) == 0 {
		return nil, fmt.Errorf("sweep: figures %s cover nothing", strings.Join(figIDs, ","))
	}

	m.Jobs = jobs
	return m, nil
}

// perfOptions reconstructs the planning options the manifest was built
// from.
func (m *Manifest) perfOptions() report.PerfOptions {
	return report.PerfOptions{Workloads: m.Workloads, Cores: m.Cores, Sim: m.Sim}
}

// validateStructure checks the manifest's internal consistency without
// re-deriving any plan: schema, key uniqueness, job kinds, the figure
// fan-out maps, and the security section's batch coverage. Every
// failure is an operator-actionable error — these are the mistakes a
// hand-edited or corrupted manifest actually produces.
func (m *Manifest) validateStructure() error {
	if m.Schema != ManifestSchema {
		return fmt.Errorf("sweep: manifest schema %d, this build expects %d; re-run plan with this build", m.Schema, ManifestSchema)
	}
	if len(m.Figures) == 0 && m.Security == nil {
		return fmt.Errorf("sweep: manifest covers no figures")
	}
	if len(m.Jobs) == 0 && m.Security == nil {
		return fmt.Errorf("sweep: manifest has no jobs")
	}
	seenFig := map[string]int{}
	for fi, f := range m.Figures {
		if prev, dup := seenFig[f.Fig]; dup {
			return fmt.Errorf("sweep: figure %q appears twice in the manifest (entries %d and %d); re-run plan", f.Fig, prev, fi)
		}
		seenFig[f.Fig] = fi
	}
	nCells := 0
	if m.Security != nil {
		nCells = len(m.Security.Cells)
	}
	seenKey := map[string]int{}
	for i, j := range m.Jobs {
		if j.Key == "" {
			return fmt.Errorf("sweep: job %d (%s) has an empty cache key; the manifest is corrupt — re-run plan", i, j.desc())
		}
		if prev, dup := seenKey[j.Key]; dup {
			return fmt.Errorf("sweep: jobs %d (%s) and %d (%s) share cache key %.12s…: the job set is deduplicated by construction, so a duplicate means the manifest was corrupted or hand-edited — re-run plan", prev, m.Jobs[prev].desc(), i, j.desc(), j.Key)
		}
		seenKey[j.Key] = i
		switch j.kind() {
		case JobKindSim:
			if j.MC != nil {
				return fmt.Errorf("sweep: job %d (%s) is a simulation job but carries a Monte-Carlo batch reference — the manifest is corrupt, re-run plan", i, j.desc())
			}
		case JobKindMC:
			if m.Security == nil {
				return fmt.Errorf("sweep: job %d (%s) is a Monte-Carlo batch but the manifest has no security section — re-run plan", i, j.desc())
			}
			if j.MC == nil {
				return fmt.Errorf("sweep: job %d (%s) is a Monte-Carlo batch but names no cell/batch — the manifest is corrupt, re-run plan", i, j.desc())
			}
			if j.MC.Cell < 0 || j.MC.Cell >= nCells {
				return fmt.Errorf("sweep: job %d (%s) references security cell %d, but the manifest lists only %d cells — re-run plan", i, j.desc(), j.MC.Cell, nCells)
			}
			if j.MC.Batch < 0 || j.MC.Trials < 1 {
				return fmt.Errorf("sweep: job %d (%s) has batch %d with %d trials; batches are non-negative and non-empty — re-run plan", i, j.desc(), j.MC.Batch, j.MC.Trials)
			}
		default:
			return fmt.Errorf("sweep: job %d (%s) has unknown kind %q; this build knows %q (simulation) and %q (Monte-Carlo trial batch) — re-run plan with this build", i, j.desc(), j.Kind, JobKindSim, JobKindMC)
		}
	}
	referenced := make([]bool, len(m.Jobs))
	for _, f := range m.Figures {
		for ci, ji := range f.Cells {
			if ji < 0 || ji >= len(m.Jobs) {
				return fmt.Errorf("sweep: figure %s cell %d references job %d, but the manifest lists only %d jobs — the fan-out map is corrupt, re-run plan", f.Fig, ci, ji, len(m.Jobs))
			}
			if m.Jobs[ji].kind() != JobKindSim {
				return fmt.Errorf("sweep: figure %s cell %d references job %d (%s), which is a %s job, not a simulation — the fan-out map is corrupt, re-run plan", f.Fig, ci, ji, m.Jobs[ji].desc(), m.Jobs[ji].kind())
			}
			referenced[ji] = true
		}
	}
	if err := m.validateSecurity(referenced); err != nil {
		return err
	}
	for i, ok := range referenced {
		if !ok {
			return fmt.Errorf("sweep: job %d (%s) is referenced by no figure — the fan-out map is corrupt, re-run plan", i, m.Jobs[i].desc())
		}
	}
	return nil
}

// validateSecurity checks the security section: figure fan-out maps,
// per-cell batch coverage (every cell's batches present exactly once
// and summing to the trial count), and cell referencing. It marks
// referenced Monte-Carlo jobs in referenced (parallel to m.Jobs).
func (m *Manifest) validateSecurity(referenced []bool) error {
	s := m.Security
	if s == nil {
		return nil
	}
	if s.Trials < 1 || s.Batch < 1 {
		return fmt.Errorf("sweep: security section declares %d trials in batches of %d; both must be positive — re-run plan", s.Trials, s.Batch)
	}
	if len(s.Figures) == 0 {
		return fmt.Errorf("sweep: security section covers no figures — re-run plan")
	}
	seenFig := map[string]int{}
	cellUsed := make([]bool, len(s.Cells))
	for fi, f := range s.Figures {
		if prev, dup := seenFig[f.Fig]; dup {
			return fmt.Errorf("sweep: security figure %q appears twice (entries %d and %d); re-run plan", f.Fig, prev, fi)
		}
		seenFig[f.Fig] = fi
		for ci, pi := range f.Cells {
			if pi < 0 || pi >= len(s.Cells) {
				return fmt.Errorf("sweep: security figure %s cell %d references cell %d, but the section lists only %d cells — the fan-out map is corrupt, re-run plan", f.Fig, ci, pi, len(s.Cells))
			}
			cellUsed[pi] = true
		}
	}
	for ci, used := range cellUsed {
		if !used {
			return fmt.Errorf("sweep: security cell %d (%s) is referenced by no figure — re-run plan", ci, s.Cells[ci].Label)
		}
	}
	// Batch coverage: cell ci must be cut into ceil(Trials/Batch)
	// batches 0…nb-1, full-size except a short tail, each appearing
	// exactly once across the job set.
	nb := (s.Trials + s.Batch - 1) / s.Batch
	got := make([]map[int]int, len(s.Cells))
	for ji, j := range m.Jobs {
		if j.kind() != JobKindMC {
			continue
		}
		if got[j.MC.Cell] == nil {
			got[j.MC.Cell] = map[int]int{}
		}
		if _, dup := got[j.MC.Cell][j.MC.Batch]; dup {
			return fmt.Errorf("sweep: security cell %d (%s) batch %d appears in two jobs — duplicate tally keys would double-count trials; re-run plan", j.MC.Cell, s.Cells[j.MC.Cell].Label, j.MC.Batch)
		}
		got[j.MC.Cell][j.MC.Batch] = j.MC.Trials
		referenced[ji] = true
	}
	for ci := range s.Cells {
		bs := got[ci]
		if len(bs) != nb {
			return fmt.Errorf("sweep: security cell %d (%s) has %d batch jobs, want %d (%d trials in batches of %d) — the job set is incomplete, re-run plan", ci, s.Cells[ci].Label, len(bs), nb, s.Trials, s.Batch)
		}
		total := 0
		for b, n := range bs {
			if b < 0 || b >= nb {
				return fmt.Errorf("sweep: security cell %d (%s) has batch index %d, valid 0…%d — re-run plan", ci, s.Cells[ci].Label, b, nb-1)
			}
			total += n
		}
		if total != s.Trials {
			return fmt.Errorf("sweep: security cell %d (%s) batches sum to %d trials, manifest declares %d — re-run plan", ci, s.Cells[ci].Label, total, s.Trials)
		}
	}
	return nil
}

// plan is a manifest's re-derived execution state: the performance
// evaluation plan (empty for security-only manifests) and the security
// plan (empty for perf-only manifests). Simulation jobs index
// eval.Cells directly (they come first in the job set); Monte-Carlo
// jobs address sec-plan cells through their MCRef.
type plan struct {
	eval report.EvaluationPlan
	sec  report.SecurityPlan
}

// run executes manifest job ji against the store: a simulation for
// JobKindSim, resolved by r (so a mitigated cell is derived or resumed
// from its baseline when it can be), a seeded trial batch for
// JobKindMC. Both are cached, idempotent, and deterministic — the
// job-kind dispatch is the only difference between the pipeline's two
// implementations. r must serve only s (see simcache.Resolver).
func (p plan) run(m *Manifest, ji int, s simcache.Store, r *simcache.Resolver) (simcache.Resolution, error) {
	j := m.Jobs[ji]
	if j.kind() == JobKindMC {
		root := report.SecurityCellSeed(m.Security.Seed, j.MC.Cell)
		_, hit, err := simcache.RunMCBatch(s, p.sec.Cells[j.MC.Cell].Spec, root, j.MC.Batch, j.MC.Trials)
		if hit {
			return simcache.Stored, err
		}
		return simcache.Simulated, err
	}
	cell := p.eval.Cells[ji]
	_, how, err := r.Resolve(s, cell.Workload, cell.System, p.eval.Sim)
	return how, err
}

// expand re-derives the plans behind the manifest and verifies the
// manifest's jobs and fan-out maps still describe them exactly — same
// deduplicated cells, same order, same content-addressed keys, same
// per-figure fan-out, same batch cuts. A key mismatch means the
// manifest was planned by a different build (any code change
// re-fingerprints the binary) or hand-edited; either way no cache entry
// this process writes or reads could line up with it, so expansion
// fails loudly instead.
func (m *Manifest) expand() (plan, error) {
	if err := m.validateStructure(); err != nil {
		return plan{}, err
	}
	if got := simcache.CodeVersion(); m.Binary != got {
		return plan{}, fmt.Errorf("sweep: manifest was planned by binary %.12s…, this is %.12s…: results would not be interchangeable (re-run plan with this build)", m.Binary, got)
	}
	return m.derivePlans(true)
}

// derivePlans re-derives the execution plans behind the manifest,
// verifying structure against the manifest's fan-out maps. With
// checkKeys the content-addressed keys must also match this build's
// derivation (the expand contract — workers and merge need
// interchangeable cache entries); without it only the build-independent
// structure is verified (cell identity, order, fan-out, batch cuts),
// which is what a different binary folding results BY THE MANIFEST'S
// OWN KEYS needs — the deduplicated job set is identical across builds
// because the fingerprint is a common component of every key.
// validateStructure must have passed before calling.
func (m *Manifest) derivePlans(checkKeys bool) (plan, error) {
	var p plan
	nSim := 0
	for _, j := range m.Jobs {
		if j.kind() == JobKindSim {
			nSim++
		}
	}
	if len(m.Figures) > 0 {
		figs := make([]report.PerfFigure, len(m.Figures))
		for fi, f := range m.Figures {
			figs[fi] = report.PerfFigure{ID: f.Fig, Configs: f.Configs, Labels: f.Labels}
		}
		p.eval = m.perfOptions().PlanEvaluation(figs)
	}
	if len(p.eval.Cells) != nSim {
		return plan{}, fmt.Errorf("sweep: manifest lists %d simulation jobs but the evaluation deduplicates to %d cells", nSim, len(p.eval.Cells))
	}
	for i, cell := range p.eval.Cells {
		j := m.Jobs[i]
		if j.kind() != JobKindSim {
			return plan{}, fmt.Errorf("sweep: job %d (%s) is a %s job inside the simulation block; simulation jobs come first — re-run plan", i, j.desc(), j.kind())
		}
		if j.Workload != cell.Workload.Name || j.Label != cell.Label {
			return plan{}, fmt.Errorf("sweep: job %d is (%s, %q) but the evaluation expands to (%s, %q); the manifest lists its jobs in another order, re-run plan with this build",
				i, j.Workload, j.Label, cell.Workload.Name, cell.Label)
		}
		if checkKeys && j.Key != p.eval.Keys[i] {
			return plan{}, fmt.Errorf("sweep: job %d (%s) key does not match this build's plan", i, j.desc())
		}
	}
	for fi, fp := range p.eval.Figures {
		f := m.Figures[fi]
		if len(f.Cells) != len(fp.Cells) {
			return plan{}, fmt.Errorf("sweep: figure %s fan-out lists %d cells but its matrix expands to %d", f.Fig, len(f.Cells), len(fp.Cells))
		}
		for ci := range f.Cells {
			if f.Cells[ci] != fp.Cells[ci] {
				return plan{}, fmt.Errorf("sweep: figure %s cell %d fans out to job %d but the evaluation maps it to job %d", f.Fig, ci, f.Cells[ci], fp.Cells[ci])
			}
		}
	}
	if err := m.expandSecurity(&p, nSim, checkKeys); err != nil {
		return plan{}, err
	}
	return p, nil
}

// expandSecurity re-derives the security plan and verifies the
// manifest's security section and Monte-Carlo jobs against it: same
// deduplicated cells, same fan-out, and every batch job carrying the
// key this build derives for its (spec, seed, batch, trials) identity.
func (m *Manifest) expandSecurity(p *plan, nSim int, checkKeys bool) error {
	if m.Security == nil {
		return nil
	}
	s := m.Security
	figIDs := make([]string, len(s.Figures))
	for fi, f := range s.Figures {
		figIDs[fi] = f.Fig
	}
	sec, err := report.PlanSecurity(figIDs)
	if err != nil {
		return err
	}
	if len(sec.Cells) != len(s.Cells) {
		return fmt.Errorf("sweep: security section lists %d cells but the figures deduplicate to %d", len(s.Cells), len(sec.Cells))
	}
	for ci, cell := range sec.Cells {
		if s.Cells[ci] != cell {
			return fmt.Errorf("sweep: security cell %d is %q in the manifest but this build plans %q there — re-run plan", ci, s.Cells[ci].Label, cell.Label)
		}
	}
	for fi, fp := range sec.Figures {
		f := s.Figures[fi]
		if len(f.Cells) != len(fp.Cells) {
			return fmt.Errorf("sweep: security figure %s fan-out lists %d cells but the figure declares %d", f.Fig, len(f.Cells), len(fp.Cells))
		}
		for ci := range f.Cells {
			if f.Cells[ci] != fp.Cells[ci] {
				return fmt.Errorf("sweep: security figure %s cell %d fans out to cell %d but this build maps it to %d", f.Fig, ci, f.Cells[ci], fp.Cells[ci])
			}
		}
	}
	// Monte-Carlo jobs follow the simulation block in (cell, batch)
	// order; verify each against the key this build derives.
	ji := nSim
	for ci, cell := range sec.Cells {
		root := report.SecurityCellSeed(s.Seed, ci)
		for b := 0; b*s.Batch < s.Trials; b++ {
			n := s.Batch
			if rem := s.Trials - b*s.Batch; n > rem {
				n = rem
			}
			if ji >= len(m.Jobs) {
				return fmt.Errorf("sweep: manifest is missing the Monte-Carlo job for cell %d (%s) batch %d — re-run plan", ci, cell.Label, b)
			}
			j := m.Jobs[ji]
			if j.kind() != JobKindMC || j.MC.Cell != ci || j.MC.Batch != b || j.MC.Trials != n {
				return fmt.Errorf("sweep: job %d (%s) should be cell %d (%s) batch %d (%d trials); the job order is corrupt — re-run plan", ji, j.desc(), ci, cell.Label, b, n)
			}
			if want := simcache.MCKey(cell.Spec, root, b, n); checkKeys && j.Key != want {
				return fmt.Errorf("sweep: job %d (%s) key does not match this build's plan", ji, j.desc())
			}
			ji++
		}
	}
	if ji != len(m.Jobs) {
		return fmt.Errorf("sweep: manifest lists %d jobs beyond the planned set — re-run plan", len(m.Jobs)-ji)
	}
	p.sec = sec
	return nil
}

// Validate checks that the manifest is internally consistent and was
// planned by this binary.
func (m *Manifest) Validate() error {
	_, err := m.expand()
	return err
}

// ValidateStructure checks the manifest's internal consistency without
// the binary-fingerprint gate. The store daemon (cmd/rowswap-cached)
// uses it: the daemon is a different executable than the planner by
// construction, and it never interprets a job beyond its key, so the
// fingerprint check belongs to the workers and the merge stage — the
// processes that actually simulate or assemble rows.
func (m *Manifest) ValidateStructure() error {
	return m.validateStructure()
}

// Save writes the manifest as indented JSON.
func (m *Manifest) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadManifest reads a manifest written by Save.
func LoadManifest(path string) (*Manifest, error) {
	m, _, err := LoadManifestRaw(path)
	return m, err
}

// LoadManifestRaw is LoadManifest also returning the file's bytes,
// which a store daemon fingerprints to name the manifest's namespace
// (objstore.ManifestFingerprint).
func LoadManifestRaw(path string) (*Manifest, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return &m, data, nil
}

// Merge re-folds every manifest job from the store directory storeDir
// (typically a rowswap-cached daemon's -store-dir), audits that each
// has a valid result, and reconstructs every covered figure's rows. It
// is MergeServer's independent oracle: the same Accumulator arithmetic
// as the daemon's fold, fed from the stored entries alone. Like that
// fold it reads by the manifest's own keys, so a manifest planned by
// another build of the CLI re-folds too; its build-independent
// structure is still verified against this build's plans. A directory
// that does not exist is an error; an existing one gains no entries
// (simcache.Open still age-prunes segments old builds left there).
func (m *Manifest) Merge(storeDir string, progress io.Writer) (*Results, error) {
	acc, err := m.NewAccumulator()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(storeDir); err != nil {
		return nil, fmt.Errorf("sweep: store dir: %w", err)
	}
	store, err := simcache.Open(storeDir)
	if err != nil {
		return nil, fmt.Errorf("sweep: store dir: %w", err)
	}
	res, err := acc.assemble(store)
	if err == nil && progress != nil {
		fmt.Fprintf(progress, "  re-folded %d jobs from %s\n", len(m.Jobs), storeDir)
	}
	return res, err
}

// assemble folds every manifest job from store, audits that each has a
// valid result, and snapshots the rows via the fan-out maps —
// simulation results into performance rows, batch tallies folded per
// security cell into MonteCarloResult rows. Tally folding is exact
// (attack.Tally merges over integer accumulators), so the security
// rows are bit-identical to a single-process oracle run of the same
// seeded trial stream, whatever order workers completed the batches
// in. A stored tally that decodes but violates its invariants fails
// the merge loudly — corrupt data never folds in.
func (a *Accumulator) assemble(store simcache.Store) (*Results, error) {
	for ji := range a.m.Jobs {
		if _, err := a.FoldJob(ji, store); err != nil {
			return nil, err
		}
	}
	if missing := a.Missing(); len(missing) > 0 {
		if len(missing) > 8 {
			missing = append(missing[:8], fmt.Sprintf("… and %d more", len(missing)-8))
		}
		return nil, fmt.Errorf("sweep: merge incomplete, %d of %d results missing:\n  %s",
			len(missing), len(a.m.Jobs), strings.Join(missing, "\n  "))
	}
	out, _, err := a.Snapshot()
	return out, err
}

// FigureResults is one figure's reconstructed rows, ready to render.
type FigureResults struct {
	Fig    string           `json:"fig"`
	Labels []string         `json:"labels"`
	Rows   []report.PerfRow `json:"rows"`
}

// MonteCarloRow is one security cell's merged Monte-Carlo outcome,
// labelled for rendering.
type MonteCarloRow struct {
	Label  string                  `json:"label"`
	Result attack.MonteCarloResult `json:"result"`
}

// SecurityResults is one security figure's reconstructed result rows,
// parallel to the figure's declared cells.
type SecurityResults struct {
	Fig  string          `json:"fig"`
	Rows []MonteCarloRow `json:"rows"`
}

// Results is the merge stage's durable output: every covered figure's
// rows — performance and security — ready to render
// (rowswap-figures -manifest) without any simulation.
type Results struct {
	Schema  int             `json:"schema"`
	Figures []FigureResults `json:"figures"`
	// Security holds the security figures' merged Monte-Carlo rows
	// (empty for perf-only sweeps).
	Security []SecurityResults `json:"security,omitempty"`
}

// FigureRows returns the rows reconstructed for the given figure.
func (r *Results) FigureRows(id string) ([]report.PerfRow, bool) {
	for _, f := range r.Figures {
		if f.Fig == id {
			return f.Rows, true
		}
	}
	return nil, false
}

// SecurityRows returns the merged Monte-Carlo rows of the given
// security figure.
func (r *Results) SecurityRows(id string) ([]MonteCarloRow, bool) {
	for _, f := range r.Security {
		if f.Fig == id {
			return f.Rows, true
		}
	}
	return nil, false
}

// Render prints every covered figure from its rows, exactly as the
// in-process figure functions would, separated by blank lines.
func (r *Results) Render(w io.Writer) error {
	if r.Schema != ManifestSchema {
		return fmt.Errorf("sweep: results schema %d, this build expects %d", r.Schema, ManifestSchema)
	}
	if len(r.Figures) == 0 && len(r.Security) == 0 {
		return fmt.Errorf("sweep: results cover no figures")
	}
	first := true
	for _, fr := range r.Figures {
		f, ok := report.PerfFigureByID(fr.Fig)
		if !ok {
			return fmt.Errorf("sweep: results reference unknown figure %q", fr.Fig)
		}
		if !first {
			fmt.Fprintln(w)
		}
		first = false
		f.Render(w, fr.Rows)
	}
	for _, sr := range r.Security {
		f, ok := report.SecurityFigureByID(sr.Fig)
		if !ok {
			return fmt.Errorf("sweep: results reference unknown security figure %q", sr.Fig)
		}
		if len(sr.Rows) != len(f.Cells) {
			return fmt.Errorf("sweep: security figure %s has %d result rows but declares %d cells", sr.Fig, len(sr.Rows), len(f.Cells))
		}
		var results []attack.MonteCarloResult
		if len(sr.Rows) > 0 {
			results = make([]attack.MonteCarloResult, len(sr.Rows))
			for i, row := range sr.Rows {
				results[i] = row.Result
			}
		}
		if !first {
			fmt.Fprintln(w)
		}
		first = false
		f.Render(w, results)
	}
	return nil
}

// Save writes the results as indented JSON.
func (r *Results) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadResults reads a results file written by Save.
func LoadResults(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return &r, nil
}
