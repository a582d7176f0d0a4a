package attack_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/config"
	"repro/internal/report"
)

// TestRunBatchMatchesPerWindowOverPlanSecurity runs every cell of the
// whole paper's security plan — the cells the Monte-Carlo jobs of a
// full sweep run — for four seeded batches, and requires RunBatch's
// tally to equal the per-window reference loop's exactly. The
// multi-window direct cells are the ones whose bits the fast path could
// change; the test fails if the plan stops containing any.
func TestRunBatchMatchesPerWindowOverPlanSecurity(t *testing.T) {
	plan, err := report.PlanSecurity(report.SecurityFigureIDs())
	if err != nil {
		t.Fatal(err)
	}
	const root, batches, trials = 7, 4, 4
	direct := 0
	for i, c := range plan.Cells {
		cellRoot := report.SecurityCellSeed(root, i)
		for b := 0; b < batches; b++ {
			got := c.Spec.RunBatch(cellRoot, b, trials)
			if want := attack.RunBatchPerWindow(c.Spec, cellRoot, b, trials); !reflect.DeepEqual(got, want) {
				t.Fatalf("cell %d (%+v) batch %d: RunBatch tally differs from the per-window loop\n got: %+v\nwant: %+v",
					i, c.Spec, b, got, want)
			}
			if b == 0 && got.MaxEpochs > 1 {
				direct++ // simulated window by window (latent cells take one)
			}
		}
	}
	if direct == 0 {
		t.Fatal("no direct-regime cell in the security plan; the comparison covers nothing")
	}
	t.Logf("%d cells, %d direct-regime", len(plan.Cells), direct)
}

// TestBestRoundsMatchesScanOverPaperModels requires BestRounds to
// return the exhaustive scan's round count and time bits on every model
// the paper's outputs optimise: each cell of the whole security plan
// (the catalogue's Fig. 6 and Fig. 10 cells, which are also the models
// fig10Render optimises), fig6Render's "best" lines, Discussion's
// secondary analyses and the root benchmarks' models.
func TestBestRoundsMatchesScanOverPaperModels(t *testing.T) {
	plan, err := report.PlanSecurity(report.SecurityFigureIDs())
	if err != nil {
		t.Fatal(err)
	}
	var models []attack.Model
	for _, c := range plan.Cells {
		models = append(models, c.Spec.Model)
	}
	for _, trh := range []int{4800, 2400, 1200} { // fig6Render
		models = append(models, attack.NewJuggernautRRS(trh, 6))
	}
	single := attack.NewJuggernautRRS(4800, 6) // Discussion and bench_test.go
	multi, open := single, single
	multi.Banks = 16
	open.ACTPeriodNS = 60
	lowOpen := attack.NewJuggernautRRS(3300, 10)
	lowOpen.ACTPeriodNS = 60
	d5 := attack.NewJuggernautRRS(3100, 10)
	d5.Timing = config.DDR5()
	models = append(models, single, multi, open, lowOpen, d5, attack.NewJuggernautSRS(4800, 6))
	for _, m := range models {
		n, tt := m.BestRounds()
		wn, wt := attack.BestRoundsScan(m)
		if n != wn || math.Float64bits(tt) != math.Float64bits(wt) {
			t.Errorf("%+v: BestRounds = (%d, %v), exhaustive scan = (%d, %v)", m, n, tt, wn, wt)
		}
	}
	t.Logf("%d models", len(models))
}
