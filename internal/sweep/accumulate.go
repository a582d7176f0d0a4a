package sweep

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"repro/internal/attack"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// This file is the incremental side of the merge: an Accumulator folds
// completed entries one at a time — in whatever order workers finish
// them, duplicates included — into the same per-figure row state the
// batch merge builds all at once. Simulation results slot into their
// evaluation-cell position through the manifest's fan-out maps;
// Monte-Carlo tally envelopes fold associatively per security cell
// (attack.Tally merges over integer accumulators, so fold order cannot
// change a bit). A Snapshot at full coverage is therefore bit-identical
// to Merge's Results, and a snapshot before that renders every figure
// row whose cells have all landed, with coverage saying what is still
// pending. Merge itself is a thin client: fold every job from a store
// directory, audit, snapshot once.

// Accumulator folds completed sweep entries incrementally into
// renderable figure state. All methods are safe for concurrent use;
// folding the same job twice is a no-op (idempotent re-fold), so a
// late straggler, a requeued duplicate, or a feed replay after a
// daemon restart never double-counts.
type Accumulator struct {
	mu   sync.Mutex
	m    *Manifest
	eval report.EvaluationPlan
	sec  report.SecurityPlan
	// jobByKey maps a job's content-addressed key to its manifest index
	// — the lookup behind FoldKey, which is how a completion feed of
	// bare keys drives the fold.
	jobByKey map[string]int
	// have[ji] records that manifest job ji has been folded; the
	// duplicate-fold guard (tally merging is associative but not
	// idempotent).
	have []bool
	done int
	// results[i] is evaluation cell i's simulation result (simulation
	// jobs come first in the manifest, so job index == cell index).
	results []*sim.Result
	// tallies[ci] is security cell ci's running tally fold;
	// cellDone[ci] counts its folded batches out of cellWant.
	tallies  []attack.Tally
	cellDone []int
	cellWant int
}

// NewAccumulator builds an accumulator for the manifest without the
// binary-fingerprint gate: the daemon (a different executable than the
// planner by construction) folds results by the MANIFEST'S keys, never
// deriving a key itself, and the deduplicated job structure is
// build-independent — the fingerprint is a common component of every
// key, so equal-key grouping is the same grouping in every build. The
// build-independent structure (cell identity and order, fan-out maps,
// batch cuts) is still verified against this build's plans, so a
// manifest that doesn't describe the evaluation fails loudly here
// instead of folding rows into the wrong figure.
func (m *Manifest) NewAccumulator() (*Accumulator, error) {
	if err := m.validateStructure(); err != nil {
		return nil, err
	}
	p, err := m.derivePlans(false)
	if err != nil {
		return nil, err
	}
	a := &Accumulator{
		m:        m,
		eval:     p.eval,
		sec:      p.sec,
		jobByKey: make(map[string]int, len(m.Jobs)),
		have:     make([]bool, len(m.Jobs)),
	}
	nSim := 0
	for i, j := range m.Jobs {
		a.jobByKey[j.Key] = i
		if j.kind() == JobKindSim {
			nSim++
		}
	}
	a.results = make([]*sim.Result, nSim)
	if m.Security != nil {
		a.tallies = make([]attack.Tally, len(m.Security.Cells))
		a.cellDone = make([]int, len(m.Security.Cells))
		a.cellWant = (m.Security.Trials + m.Security.Batch - 1) / m.Security.Batch
	}
	return a, nil
}

// FoldJob folds manifest job ji's stored result into the accumulator.
// It returns (true, nil) once the job is folded — including when it
// already was (idempotent re-fold) — and (false, nil) when the store
// has no entry for it yet. A present-but-invalid entry is an error:
// corrupt data never folds in.
func (a *Accumulator) FoldJob(ji int, store simcache.Store) (bool, error) {
	if ji < 0 || ji >= len(a.m.Jobs) {
		return false, fmt.Errorf("sweep: fold job %d, but the manifest lists %d jobs", ji, len(a.m.Jobs))
	}
	a.mu.Lock()
	already := a.have[ji]
	a.mu.Unlock()
	if already {
		return true, nil
	}
	j := a.m.Jobs[ji]
	if j.kind() == JobKindMC {
		t, hit, err := simcache.GetTally(store, j.Key)
		if err != nil {
			return false, fmt.Errorf("sweep: read tally for %s: %w", j.desc(), err)
		}
		if !hit {
			return false, nil
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.have[ji] { // lost a concurrent fold race; first one counted
			return true, nil
		}
		a.have[ji] = true
		a.done++
		a.tallies[j.MC.Cell] = a.tallies[j.MC.Cell].Merge(t)
		a.cellDone[j.MC.Cell]++
		return true, nil
	}
	var res sim.Result
	hit, err := store.Get(j.Key, &res)
	if err != nil {
		return false, fmt.Errorf("sweep: read result for %s: %w", j.desc(), err)
	}
	if !hit {
		return false, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.have[ji] {
		return true, nil
	}
	a.have[ji] = true
	a.done++
	a.results[ji] = &res
	return true, nil
}

// FoldKey folds the job stored under the given content-addressed key —
// the entry point a completion feed of bare keys drives. A key the
// manifest doesn't list is tolerated as (false, nil): a shared store
// may complete jobs of other sweeps, and a feed replayed from cursor
// zero may carry keys from a manifest registered since.
func (a *Accumulator) FoldKey(key string, store simcache.Store) (bool, error) {
	ji, ok := a.jobByKey[key]
	if !ok {
		return false, nil
	}
	return a.FoldJob(ji, store)
}

// Missing lists the jobs not yet folded, in manifest order, formatted
// exactly as the merge audit reports them.
func (a *Accumulator) Missing() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var missing []string
	for ji, ok := range a.have {
		if !ok {
			missing = append(missing, a.m.Jobs[ji].desc())
		}
	}
	return missing
}

// FigureCoverage is one figure's fold progress: how many of its cells
// have landed, and whether the snapshot rendered anything for it yet.
type FigureCoverage struct {
	Fig string `json:"fig"`
	// Security marks a security figure (its Cells are Monte-Carlo
	// cells, each needing every trial batch, not simulation cells).
	Security bool `json:"security,omitempty"`
	// Cells is the figure's cell count; Covered how many are complete.
	// Closed-form security figures have zero cells and are always
	// covered.
	Cells   int `json:"cells"`
	Covered int `json:"covered"`
	// Rendered reports whether the snapshot includes rows for this
	// figure: any fully-covered workload row for a performance figure,
	// full coverage for a security figure (partial Monte-Carlo rows
	// would misrepresent the distribution, so security figures are
	// all-or-nothing).
	Rendered bool `json:"rendered"`
}

// Coverage is a snapshot's progress report: jobs folded of jobs total,
// and per-figure cell coverage in Results order (performance figures
// first, then security figures).
type Coverage struct {
	Jobs    int              `json:"jobs"`
	Done    int              `json:"done"`
	Figures []FigureCoverage `json:"figures"`
}

// Complete reports whether every job has been folded.
func (c Coverage) Complete() bool { return c.Done == c.Jobs }

// Snapshot assembles the current fold state into renderable Results
// plus its coverage. Performance figures contribute every workload row
// whose cells (baseline and all configs) have landed; security figures
// contribute only at full coverage. At full coverage the Results are
// bit-identical to Merge's — same fold arithmetic, same
// order-independent tally folding.
func (a *Accumulator) Snapshot() (*Results, Coverage, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := &Results{Schema: ManifestSchema}
	cov := Coverage{Jobs: len(a.m.Jobs), Done: a.done}
	for _, fp := range a.eval.Figures {
		covered := 0
		for _, ci := range fp.Cells {
			if a.have[ci] { // simulation job index == evaluation cell index
				covered++
			}
		}
		fc := FigureCoverage{Fig: fp.Figure.ID, Cells: len(fp.Cells), Covered: covered}
		var rows []report.PerfRow
		var err error
		if covered == len(fp.Cells) {
			rows, err = fp.Rows(a.results)
		} else {
			rows, err = fp.PartialRows(a.results)
		}
		if err != nil {
			return nil, Coverage{}, err
		}
		if len(rows) > 0 {
			fc.Rendered = true
			out.Figures = append(out.Figures, FigureResults{Fig: fp.Figure.ID, Labels: fp.Figure.Labels, Rows: rows})
		}
		cov.Figures = append(cov.Figures, fc)
	}
	if a.m.Security != nil {
		cellResults := make([]attack.MonteCarloResult, len(a.sec.Cells))
		cellOK := make([]bool, len(a.sec.Cells))
		for ci := range a.sec.Cells {
			if a.cellDone[ci] == a.cellWant {
				cellResults[ci] = a.tallies[ci].Result(a.sec.Cells[ci].Spec.Model)
				cellOK[ci] = true
			}
		}
		for _, fp := range a.sec.Figures {
			covered := 0
			for _, pi := range fp.Cells {
				if cellOK[pi] {
					covered++
				}
			}
			fc := FigureCoverage{Fig: fp.Figure.ID, Security: true, Cells: len(fp.Cells), Covered: covered}
			if covered == len(fp.Cells) {
				figRes, err := fp.Results(cellResults)
				if err != nil {
					return nil, Coverage{}, err
				}
				rows := make([]MonteCarloRow, len(figRes))
				for i, r := range figRes {
					rows[i] = MonteCarloRow{Label: fp.Figure.Cells[i].Label, Result: r}
				}
				fc.Rendered = true
				out.Security = append(out.Security, SecurityResults{Fig: fp.Figure.ID, Rows: rows})
			}
			cov.Figures = append(cov.Figures, fc)
		}
	}
	return out, cov, nil
}

// checkSnapshot verifies complete snapshot Results against the layout
// Snapshot builds from this plan: performance figures in manifest
// order with the manifest's labels and one row per planned workload
// carrying exactly the plan's config labels, then security figures in
// order with one labelled row per cell. A daemon that folded under a
// different reading of the manifest fails here, naming the figure,
// instead of rendering rows into the wrong table.
func (p plan) checkSnapshot(res *Results) error {
	for i := 0; i < max(len(res.Figures), len(p.eval.Figures)); i++ {
		if i >= len(p.eval.Figures) {
			return fmt.Errorf("sweep: snapshot has figure %s, which the plan lacks", res.Figures[i].Fig)
		}
		fp := p.eval.Figures[i]
		if i >= len(res.Figures) || res.Figures[i].Fig != fp.Figure.ID {
			return fmt.Errorf("sweep: snapshot lacks figure %s at position %d", fp.Figure.ID, i)
		}
		got := res.Figures[i]
		if !slices.Equal(got.Labels, fp.Figure.Labels) {
			return fmt.Errorf("sweep: snapshot figure %s has labels %q, the plan %q", got.Fig, got.Labels, fp.Figure.Labels)
		}
		if len(got.Rows) != len(fp.Plan.Workloads) {
			return fmt.Errorf("sweep: snapshot figure %s has %d rows, the plan %d workloads", got.Fig, len(got.Rows), len(fp.Plan.Workloads))
		}
		for r, w := range fp.Plan.Workloads {
			row, n := got.Rows[r], 0
			for _, l := range fp.Plan.Labels {
				if _, ok := row.Norm[l]; ok {
					n++
				}
			}
			if row.Workload != w.Name || n != len(row.Norm) || n != len(fp.Plan.Labels) {
				return fmt.Errorf("sweep: snapshot figure %s row %d is %s over %d values, the plan has %s over %q", got.Fig, r, row.Workload, len(row.Norm), w.Name, fp.Plan.Labels)
			}
		}
	}
	for i := 0; i < max(len(res.Security), len(p.sec.Figures)); i++ {
		if i >= len(p.sec.Figures) {
			return fmt.Errorf("sweep: snapshot has security figure %s, which the plan lacks", res.Security[i].Fig)
		}
		fp := p.sec.Figures[i]
		if i >= len(res.Security) || res.Security[i].Fig != fp.Figure.ID {
			return fmt.Errorf("sweep: snapshot lacks security figure %s at position %d", fp.Figure.ID, i)
		}
		got := res.Security[i]
		if len(got.Rows) != len(fp.Figure.Cells) {
			return fmt.Errorf("sweep: snapshot security figure %s has %d rows, the plan %d cells", got.Fig, len(got.Rows), len(fp.Figure.Cells))
		}
		for r, c := range fp.Figure.Cells {
			if got.Rows[r].Label != c.Label {
				return fmt.Errorf("sweep: snapshot security figure %s row %d is %q, the plan has cell %q", got.Fig, r, got.Rows[r].Label, c.Label)
			}
		}
	}
	return nil
}

// Partial is the wire shape of a partial-figures snapshot: the rows
// renderable so far plus the coverage that qualifies them. The daemon
// serves it on GET /m/{fp}/figures; rowswap-figures -follow consumes
// it.
type Partial struct {
	Results  *Results `json:"results"`
	Coverage Coverage `json:"coverage"`
}

// DecodePartial decodes a figure snapshot as the daemon serves it (GET
// /m/{fp}/figures) and rejects one no consumer can trust: results of a
// schema other than ManifestSchema, coverage that counts more jobs or
// cells done than exist, or full coverage without results. Both
// consumers — MergeServer and rowswap-figures -follow — decode through
// it, so a bad snapshot fails loudly instead of rendering nothing.
func DecodePartial(data []byte) (*Partial, error) {
	var p Partial
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("sweep: figure snapshot does not decode: %w", err)
	}
	cov := p.Coverage
	if cov.Done < 0 || cov.Done > cov.Jobs {
		return nil, fmt.Errorf("sweep: figure snapshot reports %d of %d jobs done", cov.Done, cov.Jobs)
	}
	for _, fc := range cov.Figures {
		if fc.Covered < 0 || fc.Covered > fc.Cells {
			return nil, fmt.Errorf("sweep: figure snapshot reports figure %s covering %d of %d cells", fc.Fig, fc.Covered, fc.Cells)
		}
	}
	if p.Results == nil {
		if cov.Complete() {
			return nil, fmt.Errorf("sweep: figure snapshot reports all %d jobs done but carries no results", cov.Jobs)
		}
		return &p, nil
	}
	if p.Results.Schema != ManifestSchema {
		return nil, fmt.Errorf("sweep: figure snapshot results have schema %d, this build expects %d", p.Results.Schema, ManifestSchema)
	}
	return &p, nil
}

// PartialJSON marshals the current snapshot as a Partial — the
// daemon-facing entry point (see objstore.FigureFolder).
func (a *Accumulator) PartialJSON() ([]byte, error) {
	res, cov, err := a.Snapshot()
	if err != nil {
		return nil, err
	}
	return json.Marshal(Partial{Results: res, Coverage: cov})
}
