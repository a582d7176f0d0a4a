package report

import (
	"fmt"
	"io"

	"repro/internal/attack"
	"repro/internal/stats"
)

// This file plans the security side of the evaluation the same way
// evalplan.go plans the performance side: every security figure/table
// declares the Monte-Carlo experiment cells it needs (possibly none —
// most are closed-form), PlanSecurity deduplicates the union into one
// cell set, and a renderer reconstructs each figure from the merged
// per-cell results. internal/sweep shards the cells' trial batches
// across worker processes; report never cares where a result ran.

// DefaultSecuritySeed is the root seed of in-process security renders
// (rowswap-figures, the Fig6 compatibility entry point). Distributed
// sweeps carry their own root seed in the manifest.
const DefaultSecuritySeed = 0xf16

// SecurityCell is one Monte-Carlo experiment cell of a security
// figure: a trial spec plus the human label its result row carries.
type SecurityCell struct {
	Label string           `json:"label"`
	Spec  attack.TrialSpec `json:"spec"`
}

// SecurityFigure is one security figure or table of the paper's
// evaluation. Cells lists the Monte-Carlo experiments the figure
// consumes (empty for purely closed-form figures); Render reproduces
// the figure from results parallel to Cells (nil renders the
// closed-form content alone, skipping Monte-Carlo columns).
type SecurityFigure struct {
	ID     string
	Title  string
	Cells  []SecurityCell
	Render func(w io.Writer, results []attack.MonteCarloResult)
}

// fig6Cells returns Figure 6's Monte-Carlo validation cells: the
// TRH=4800 curve's 15 round counts at swap rate 6.
func fig6Cells() []SecurityCell {
	var cells []SecurityCell
	for n := 0; n <= 1400; n += 100 {
		cells = append(cells, SecurityCell{
			Label: fmt.Sprintf("rrs trh=4800 rate=6 n=%d", n),
			Spec:  attack.TrialSpec{Model: attack.NewJuggernautRRS(4800, 6), Rounds: n},
		})
	}
	return cells
}

// fig10Cells returns Figure 10's Monte-Carlo validation cells: every
// (defense, TRH, swap rate) point of the figure, each at its own
// optimal round count — the number the analytic curve quotes.
func fig10Cells() []SecurityCell {
	var cells []SecurityCell
	for _, def := range []string{"srs", "rrs"} {
		for _, trh := range []int{4800, 2400, 1200} {
			for rate := 6; rate <= 10; rate++ {
				var m attack.Model
				if def == "srs" {
					m = attack.NewJuggernautSRS(trh, rate)
				} else {
					m = attack.NewJuggernautRRS(trh, rate)
				}
				n, _ := m.BestRounds()
				cells = append(cells, SecurityCell{
					Label: fmt.Sprintf("%s trh=%d rate=%d n=%d", def, trh, rate, n),
					Spec:  attack.TrialSpec{Model: m, Rounds: n},
				})
			}
		}
	}
	return cells
}

// securityFigures returns the full security-evaluation catalogue in
// paper order. Built fresh per call and deliberately not cached: every
// caller gets Cells slices of its own, so one that modifies a figure's
// cells cannot change what later lookups and plans see (a cache would
// share them), and with BestRounds' plateau search a build costs about
// a quarter of a millisecond.
func securityFigures() []SecurityFigure {
	closed := func(render func(w io.Writer)) func(io.Writer, []attack.MonteCarloResult) {
		return func(w io.Writer, _ []attack.MonteCarloResult) { render(w) }
	}
	return []SecurityFigure{
		{ID: "1a", Title: "Fig 1a: time-to-break RRS, untargeted attack",
			Render: closed(func(w io.Writer) { Fig1a(w) })},
		{ID: "6", Title: "Fig 6: time-to-break RRS with Juggernaut + MC validation",
			Cells:  fig6Cells(),
			Render: func(w io.Writer, results []attack.MonteCarloResult) { fig6Render(w, results) }},
		{ID: "7", Title: "Fig 7: required correct guesses vs rounds",
			Render: closed(func(w io.Writer) { Fig7(w) })},
		{ID: "10", Title: "Fig 10: time-to-break SRS vs RRS + MC validation",
			Cells:  fig10Cells(),
			Render: func(w io.Writer, results []attack.MonteCarloResult) { fig10Render(w, results) }},
		{ID: "13", Title: "Fig 13: outlier-row appearance times",
			Render: closed(func(w io.Writer) { Fig13(w) })},
		{ID: "t1", Title: "Table I: Row Hammer threshold history",
			Render: closed(Table1)},
		{ID: "t4", Title: "Table IV: storage overhead per bank",
			Render: closed(Table4)},
		{ID: "t5", Title: "Table V: extra power per channel",
			Render: closed(Table5)},
	}
}

// SecurityFigureIDs returns every security figure/table ID in paper
// order — the security half of `rowswap-sweep plan -all`.
func SecurityFigureIDs() []string {
	figs := securityFigures()
	ids := make([]string, len(figs))
	for i, f := range figs {
		ids[i] = f.ID
	}
	return ids
}

// SecurityFigureByID looks up a security figure by ID.
func SecurityFigureByID(id string) (SecurityFigure, bool) {
	for _, f := range securityFigures() {
		if f.ID == id {
			return f, true
		}
	}
	return SecurityFigure{}, false
}

// SecurityFigurePlan is one figure's view into a SecurityPlan: the
// figure plus the fan-out map from its cells to the plan's
// deduplicated cell set.
type SecurityFigurePlan struct {
	Figure SecurityFigure
	// Cells maps the figure's cell index to an index into the plan's
	// deduplicated cells.
	Cells []int
}

// Results gathers the figure's per-cell results from plan-indexed
// results (results[i] is the outcome of the plan's cell i).
func (fp SecurityFigurePlan) Results(results []attack.MonteCarloResult) ([]attack.MonteCarloResult, error) {
	local := make([]attack.MonteCarloResult, len(fp.Cells))
	for i, ci := range fp.Cells {
		if ci < 0 || ci >= len(results) {
			return nil, fmt.Errorf("report: security figure %s cell %d maps to plan cell %d of %d",
				fp.Figure.ID, i, ci, len(results))
		}
		local[i] = results[ci]
	}
	return local, nil
}

// SecurityPlan spans a set of security figures as one experiment: the
// union of every figure's Monte-Carlo cells, deduplicated by trial
// spec so a cell shared between figures runs its trials exactly once.
// Like EvaluationPlan it is pure data: planning twice, anywhere,
// yields the same cells in the same order.
type SecurityPlan struct {
	// Figures holds one view per requested figure, in request order.
	Figures []SecurityFigurePlan
	// Cells is the deduplicated cell set in first-occurrence order.
	Cells []SecurityCell
}

// TotalFigureCells returns the pre-deduplication cell count across the
// planned figures.
func (p SecurityPlan) TotalFigureCells() int {
	n := 0
	for _, fp := range p.Figures {
		n += len(fp.Cells)
	}
	return n
}

// PlanSecurity expands the given security figure IDs into one
// deduplicated plan without running any trials.
func PlanSecurity(figIDs []string) (SecurityPlan, error) {
	var p SecurityPlan
	index := map[attack.TrialSpec]int{}
	for _, id := range figIDs {
		f, ok := SecurityFigureByID(id)
		if !ok {
			return SecurityPlan{}, fmt.Errorf("report: unknown security figure %q (known IDs: %v)",
				id, SecurityFigureIDs())
		}
		fp := SecurityFigurePlan{Figure: f, Cells: make([]int, len(f.Cells))}
		for ci, cell := range f.Cells {
			pi, ok := index[cell.Spec]
			if !ok {
				pi = len(p.Cells)
				index[cell.Spec] = pi
				p.Cells = append(p.Cells, cell)
			}
			fp.Cells[ci] = pi
		}
		p.Figures = append(p.Figures, fp)
	}
	return p, nil
}

// SecurityCellSeed derives plan cell `cell`'s root seed from the
// experiment's root seed. Both the single-process oracle and the
// distributed sweep use this derivation, so their per-batch seeds —
// and therefore their merged tallies — are bit-identical.
func SecurityCellSeed(root uint64, cell int) uint64 {
	return stats.SubSeed(root, uint64(cell))
}

// RunSecurityCells is the single-process oracle for a planned cell
// set: every cell's full trial stream runs in this process, batches
// sequential. A distributed run of the same (root, trials, batch)
// stream merges to bit-identical results.
func RunSecurityCells(cells []SecurityCell, root uint64, trials, batch int) []attack.MonteCarloResult {
	out := make([]attack.MonteCarloResult, len(cells))
	for i, c := range cells {
		out[i] = c.Spec.Run(SecurityCellSeed(root, i), trials, batch)
	}
	return out
}
