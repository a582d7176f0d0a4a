package report

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
)

func TestSecurityCatalogue(t *testing.T) {
	ids := SecurityFigureIDs()
	if len(ids) == 0 {
		t.Fatal("no security figures")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("security figure ID %q duplicated", id)
		}
		seen[id] = true
		// The two catalogues must never collide: sweep's figure dispatch
		// tries performance first and would silently shadow a security
		// figure sharing an ID.
		if _, ok := PerfFigureByID(id); ok {
			t.Errorf("ID %q exists in both the performance and security catalogues", id)
		}
		f, ok := SecurityFigureByID(id)
		if !ok || f.Render == nil {
			t.Errorf("figure %q missing or unrenderable", id)
		}
	}
	// Only Figs. 6 and 10 carry Monte-Carlo cells; the rest are
	// closed-form and must render with nil results.
	for _, id := range ids {
		f, _ := SecurityFigureByID(id)
		wantCells := id == "6" || id == "10"
		if (len(f.Cells) > 0) != wantCells {
			t.Errorf("figure %q has %d cells, cells expected: %v", id, len(f.Cells), wantCells)
		}
		if !wantCells {
			var buf bytes.Buffer
			f.Render(&buf, nil)
			if buf.Len() == 0 {
				t.Errorf("closed-form figure %q rendered nothing", id)
			}
		}
	}
	if _, ok := SecurityFigureByID("nope"); ok {
		t.Error("unknown ID resolved")
	}
}

func TestPlanSecurityDedupAndDeterminism(t *testing.T) {
	p, err := PlanSecurity([]string{"6", "10", "t4"})
	if err != nil {
		t.Fatal(err)
	}
	// DeepEqual on the whole plan would compare Render closures; the
	// plan's pure data — cells and fan-out maps — is the contract.
	p2, err := PlanSecurity([]string{"6", "10", "t4"})
	if err != nil || !reflect.DeepEqual(p.Cells, p2.Cells) {
		t.Fatal("PlanSecurity cells are not deterministic")
	}
	for fi := range p.Figures {
		if !reflect.DeepEqual(p.Figures[fi].Cells, p2.Figures[fi].Cells) {
			t.Fatalf("figure %s fan-out not deterministic", p.Figures[fi].Figure.ID)
		}
	}
	if len(p.Figures) != 3 {
		t.Fatalf("planned %d figures, want 3", len(p.Figures))
	}
	// No duplicate specs in the deduplicated set, and every fan-out
	// index in range.
	specs := map[attack.TrialSpec]bool{}
	for _, c := range p.Cells {
		if specs[c.Spec] {
			t.Fatalf("cell spec duplicated: %s", c.Label)
		}
		specs[c.Spec] = true
	}
	for _, fp := range p.Figures {
		if len(fp.Cells) != len(fp.Figure.Cells) {
			t.Fatalf("figure %s fan-out length %d, want %d", fp.Figure.ID, len(fp.Cells), len(fp.Figure.Cells))
		}
		for ci, pi := range fp.Cells {
			if pi < 0 || pi >= len(p.Cells) {
				t.Fatalf("figure %s cell %d maps out of range: %d", fp.Figure.ID, ci, pi)
			}
			if p.Cells[pi].Spec != fp.Figure.Cells[ci].Spec {
				t.Fatalf("figure %s cell %d maps to a different spec", fp.Figure.ID, ci)
			}
		}
	}
	if p.TotalFigureCells() < len(p.Cells) {
		t.Error("pre-dedupe cell count below deduplicated count")
	}
	if _, err := PlanSecurity([]string{"6", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "known IDs") {
		t.Errorf("unknown figure ID error unhelpful: %v", err)
	}
}

// TestSecurityFigureCellsNotShared pins the catalogue's no-aliasing
// contract: a caller that overwrites a returned figure's cell must not
// change what the next lookup or plan sees. A catalogue cache that
// handed out shared Cells slices would fail here.
func TestSecurityFigureCellsNotShared(t *testing.T) {
	f, _ := SecurityFigureByID("10")
	want := f.Cells[0]
	plan, err := PlanSecurity([]string{"10"})
	if err != nil {
		t.Fatal(err)
	}
	wantPlan := append([]SecurityCell(nil), plan.Cells...)

	f.Cells[0] = SecurityCell{Label: "clobbered",
		Spec: attack.TrialSpec{Model: attack.NewJuggernautRRS(1, 1), Rounds: -1}}

	if again, _ := SecurityFigureByID("10"); again.Cells[0] != want {
		t.Errorf("lookup after overwrite: cell 0 = %+v, want %+v", again.Cells[0], want)
	}
	plan2, err := PlanSecurity([]string{"10"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan2.Cells, wantPlan) {
		t.Error("PlanSecurity after overwriting a looked-up figure's cell changed its cells")
	}
	if plan2.Figures[0].Figure.Cells[0] != want {
		t.Errorf("planned figure cell 0 = %+v, want %+v", plan2.Figures[0].Figure.Cells[0], want)
	}
}

func TestSecurityCellSeedDerivation(t *testing.T) {
	seen := map[uint64]bool{}
	for ci := 0; ci < 64; ci++ {
		s := SecurityCellSeed(DefaultSecuritySeed, ci)
		if seen[s] {
			t.Fatalf("cell seed collision at %d", ci)
		}
		seen[s] = true
	}
	if SecurityCellSeed(1, 0) == SecurityCellSeed(2, 0) {
		t.Error("root seed does not reach cell seeds")
	}
}

func TestRunSecurityCellsMatchesPerCellRun(t *testing.T) {
	cells := []SecurityCell{
		{Label: "a", Spec: attack.TrialSpec{Model: attack.NewJuggernautSRS(4800, 10), Rounds: 0}},
		{Label: "b", Spec: attack.TrialSpec{Model: attack.NewJuggernautRRS(1200, 6), Rounds: 600}},
	}
	const root, trials, batch = 5, 100, 30
	got := RunSecurityCells(cells, root, trials, batch)
	for i, c := range cells {
		want := c.Spec.Run(SecurityCellSeed(root, i), trials, batch)
		if math.Float64bits(got[i].MeanTimeNS) != math.Float64bits(want.MeanTimeNS) ||
			got[i].Iterations != want.Iterations {
			t.Errorf("cell %d: oracle differs from direct run", i)
		}
	}
}

// Figs. 6 and 10 must render their Monte-Carlo columns when results
// are supplied and fall back to analytic-only output when not.
func TestSecurityFigureRenderWithResults(t *testing.T) {
	for _, id := range []string{"6", "10"} {
		f, _ := SecurityFigureByID(id)
		results := make([]attack.MonteCarloResult, len(f.Cells))
		for i := range results {
			results[i] = attack.MonteCarloResult{Iterations: 10, MeanTimeNS: 1e12, MeanEpochs: 2}
		}
		var with, without bytes.Buffer
		f.Render(&with, results)
		f.Render(&without, nil)
		if with.Len() <= without.Len() {
			t.Errorf("figure %s: render with results (%d bytes) not longer than without (%d)",
				id, with.Len(), without.Len())
		}
	}
}
