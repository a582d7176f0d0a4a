package report

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/simcache"
)

// FigurePlan is one figure's view into an EvaluationPlan: the figure's
// own MatrixPlan (whose cell order Rows consumes) plus the fan-out map
// from its cells to the evaluation's deduplicated cell set.
type FigurePlan struct {
	// Figure carries the figure's identity and config matrix. Render is
	// only populated when the figure came from PerfFigureByID.
	Figure PerfFigure
	// Plan is the figure's own matrix expansion, identical to what
	// PerfOptions.Plan returns for the figure's configs.
	Plan MatrixPlan
	// Cells maps the figure's matrix-cell index (Plan.Cells order) to an
	// index into the evaluation's deduplicated cells. Several figure
	// cells — every figure's unprotected baseline, comparator configs
	// that recur across figures — may map to the same evaluation cell.
	Cells []int
}

// Rows assembles the figure's normalized performance rows from
// evaluation-indexed results: results[i] is the outcome of the
// evaluation's cell i (EvaluationPlan.Cells order). The fan-out map
// gathers each figure cell's result and the arithmetic is
// MatrixPlan.Rows, so rows are bit-identical to running the figure's
// matrix on its own.
func (fp FigurePlan) Rows(results []*sim.Result) ([]PerfRow, error) {
	local := make([]*sim.Result, len(fp.Cells))
	for i, ci := range fp.Cells {
		if ci < 0 || ci >= len(results) {
			return nil, fmt.Errorf("report: figure %s cell %d maps to evaluation cell %d of %d",
				fp.Figure.ID, i, ci, len(results))
		}
		local[i] = results[ci]
	}
	return fp.Plan.Rows(local)
}

// PartialRows is Rows over an incomplete evaluation result set: nil
// entries mark cells still pending, and only workloads whose every
// cell is present produce a row (see MatrixPlan.PartialRows). Rows
// that appear are bit-identical to the complete merge's.
func (fp FigurePlan) PartialRows(results []*sim.Result) ([]PerfRow, error) {
	local := make([]*sim.Result, len(fp.Cells))
	for i, ci := range fp.Cells {
		if ci < 0 || ci >= len(results) {
			return nil, fmt.Errorf("report: figure %s cell %d maps to evaluation cell %d of %d",
				fp.Figure.ID, i, ci, len(results))
		}
		local[i] = results[ci]
	}
	return fp.Plan.PartialRows(local)
}

// EvaluationPlan spans a set of performance figures as one experiment:
// the union of every figure's MatrixPlan, content-deduplicated so each
// unique (workload, system, options) simulation appears exactly once,
// however many figures need it. The paper's evaluation is a single
// coherent matrix — Figs. 4/12/14/15/16 and the §IX-A comparators share
// all workloads, every unprotected baseline, and many mitigation
// configs — so planning it whole simulates each shared cell once
// instead of once per figure.
//
// Like MatrixPlan, an EvaluationPlan is pure data derived
// deterministically from (PerfOptions, figures): planning twice, in
// different processes or on different machines, yields the same cells,
// keys, and fan-out maps. internal/sweep distributes the deduplicated
// cells across worker processes and reconstructs every figure's rows
// from the single merged result set.
type EvaluationPlan struct {
	// Figures holds one view per requested figure, in request order.
	Figures []FigurePlan
	// Cells is the deduplicated cell set: every baseline, then every
	// mitigated cell, each in first-occurrence order (see
	// PlanEvaluation).
	Cells []MatrixCell
	// Keys[i] is the content-addressed simulation key of Cells[i]
	// (simcache.RunKey): the identity cells are deduplicated by, and the
	// key a distributed run stores cell i's result under.
	Keys []string
	// Sim is the normalized simulation options every cell runs with,
	// shared by every figure in the evaluation.
	Sim sim.Options
}

// TotalFigureCells returns the number of cells the figures would
// simulate if each were planned alone — the pre-deduplication job
// count. The difference to len(Cells) is the evaluation-wide planning
// win.
func (p EvaluationPlan) TotalFigureCells() int {
	n := 0
	for _, fp := range p.Figures {
		n += len(fp.Cells)
	}
	return n
}

// PlanEvaluation expands the given figures into one deduplicated
// evaluation plan without running anything. Cells are deduplicated by
// their content-addressed simulation key, so two figure cells collapse
// exactly when no observable difference exists between their
// simulations (same workload, full system configuration, and
// normalized options — label spellings do not matter).
//
// Cells lists every figure's unprotected baselines first, then the
// mitigated cells, each group in first-occurrence order (figures in
// request order, each figure's cells in its own MatrixPlan order).
// That is the order runMatrix claims a figure's cells in, and a sweep's
// queue hands out jobs in Cells order, so a mitigated cell is claimed
// after its baseline and can be derived or resumed from it.
func (o PerfOptions) PlanEvaluation(figs []PerfFigure) EvaluationPlan {
	eval := EvaluationPlan{Figures: make([]FigurePlan, len(figs))}
	for fi, f := range figs {
		plan := o.Plan(f.Configs)
		eval.Figures[fi] = FigurePlan{Figure: f, Plan: plan, Cells: make([]int, len(plan.Cells))}
		eval.Sim = plan.Sim
	}
	index := map[string]int{}
	for _, baselines := range []bool{true, false} {
		for _, fp := range eval.Figures {
			for ci, cell := range fp.Plan.Cells {
				if (cell.Label == "") != baselines {
					continue
				}
				key := simcache.RunKey(cell.Workload, cell.System, fp.Plan.Sim)
				ei, ok := index[key]
				if !ok {
					ei = len(eval.Cells)
					index[key] = ei
					eval.Cells = append(eval.Cells, cell)
					eval.Keys = append(eval.Keys, key)
				}
				fp.Cells[ci] = ei
			}
		}
	}
	return eval
}
