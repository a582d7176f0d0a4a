package attack_test

import (
	"reflect"
	"testing"

	"repro/internal/attack"
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
