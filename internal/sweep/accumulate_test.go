package sweep

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/simcache"
)

// TestAccumulatorFoldOrderMatchesMerge is the tentpole's differential
// oracle: folding a mixed perf+security evaluation's entries one at a
// time, in random arrival orders with duplicate re-folds sprinkled in,
// must yield Results bit-identical to the single-shot Merge of the same
// store. Along the way (first trial) it checks the partial
// snapshots: job coverage counts every fold exactly once, per-figure
// cell coverage never decreases, and a rendered figure never becomes
// unrendered.
func TestAccumulatorFoldOrderMatchesMerge(t *testing.T) {
	m, err := PlanEvaluation([]string{"14", "6", "t4"}, quickOpts(), secPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store := fillStore(t, m, dir, nil)
	batch, err := m.Merge(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := batch.FigureRows("14")
	if !ok {
		t.Fatal("batch merge lost figure 14")
	}
	requireNonTrivial(t, rows)
	wantJSON, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(0xACC0 + trial)))
		acc, err := m.NewAccumulator()
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(len(m.Jobs))
		prevCov := make([]FigureCoverage, 0)
		for n, ji := range perm {
			folded, err := acc.FoldKey(m.Jobs[ji].Key, store)
			if err != nil {
				t.Fatalf("trial %d: fold %s: %v", trial, m.Jobs[ji].desc(), err)
			}
			if !folded {
				t.Fatalf("trial %d: stored job %s did not fold", trial, m.Jobs[ji].desc())
			}
			// Re-fold a random already-folded job: must be a no-op.
			dup := perm[rng.Intn(n+1)]
			if folded, err := acc.FoldJob(dup, store); err != nil || !folded {
				t.Fatalf("trial %d: duplicate re-fold of %s = (%v, %v), want (true, nil)",
					trial, m.Jobs[dup].desc(), folded, err)
			}
			if trial != 0 {
				continue
			}
			_, cov, err := acc.Snapshot()
			if err != nil {
				t.Fatalf("partial snapshot after %d folds: %v", n+1, err)
			}
			if cov.Done != n+1 || cov.Jobs != len(m.Jobs) {
				t.Fatalf("coverage %d/%d after %d folds (+1 duplicate), want %d/%d",
					cov.Done, cov.Jobs, n+1, n+1, len(m.Jobs))
			}
			for i, fc := range cov.Figures {
				if i < len(prevCov) {
					if fc.Covered < prevCov[i].Covered {
						t.Fatalf("figure %s coverage regressed: %d -> %d", fc.Fig, prevCov[i].Covered, fc.Covered)
					}
					if prevCov[i].Rendered && !fc.Rendered {
						t.Fatalf("figure %s became unrendered", fc.Fig)
					}
				}
				if fc.Covered > fc.Cells {
					t.Fatalf("figure %s covers %d of %d cells", fc.Fig, fc.Covered, fc.Cells)
				}
			}
			prevCov = cov.Figures
		}
		res, cov, err := acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !cov.Complete() {
			t.Fatalf("trial %d: %d/%d jobs after folding everything", trial, cov.Done, cov.Jobs)
		}
		gotJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("trial %d: streamed snapshot differs from batch merge\nstreamed: %.200s\nbatch:    %.200s",
				trial, gotJSON, wantJSON)
		}
		// Belt and braces on the floats the JSON identity already covers:
		// compare the security rows' bits directly.
		want, _ := batch.SecurityRows("6")
		got, ok := res.SecurityRows("6")
		if !ok || len(got) != len(want) {
			t.Fatalf("trial %d: figure 6 rows missing or short: %d", trial, len(got))
		}
		for i := range want {
			if mcRowBits(got[i]) != mcRowBits(want[i]) {
				t.Fatalf("trial %d: cell %d (%s): streamed %+v != batch %+v",
					trial, i, want[i].Label, got[i].Result, want[i].Result)
			}
		}
	}
}

// TestAccumulatorPartialSnapshots pins what a snapshot shows before
// full coverage: a perf workload row appears once its baseline and
// every config cell have landed, a security figure renders only at
// full cell coverage, and a closed-form security figure (no cells) is
// covered from the start.
func TestAccumulatorPartialSnapshots(t *testing.T) {
	m, err := PlanEvaluation([]string{"14", "6", "t4"}, quickOpts(), secPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	store := fillStore(t, m, t.TempDir(), nil)
	acc, err := m.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}

	// Nothing folded: no perf rows, no security rows; t4 (closed-form)
	// already covered and rendered, fig 6 waiting.
	res, cov, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) != 0 {
		t.Fatalf("empty accumulator rendered perf figures: %+v", res.Figures)
	}
	figCov := map[string]FigureCoverage{}
	for _, fc := range cov.Figures {
		figCov[fc.Fig] = fc
	}
	if fc := figCov["t4"]; !fc.Security || fc.Cells != 0 || !fc.Rendered {
		t.Errorf("closed-form t4 coverage: %+v, want rendered with 0 cells", fc)
	}
	if fc := figCov["6"]; fc.Rendered || fc.Covered != 0 {
		t.Errorf("figure 6 coverage before any fold: %+v", fc)
	}
	if _, ok := res.SecurityRows("t4"); !ok {
		t.Error("closed-form t4 missing from the empty snapshot")
	}

	// Fold exactly workload 0's cells (baseline + each label, found
	// through the fan-out): its row renders; the other workloads' rows
	// do not.
	stride := len(m.Figures[0].Labels) + 1
	for _, ji := range m.Figures[0].Cells[:stride] {
		if folded, err := acc.FoldJob(ji, store); err != nil || !folded {
			t.Fatalf("fold sim job %d = (%v, %v)", ji, folded, err)
		}
	}
	res, cov, err = acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := res.FigureRows("14")
	if !ok || len(rows) != 1 {
		t.Fatalf("one complete workload rendered %d rows, want 1", len(rows))
	}
	if rows[0].Workload != m.Jobs[0].Workload {
		t.Errorf("partial row is for %s, want %s", rows[0].Workload, m.Jobs[0].Workload)
	}
	for _, fc := range cov.Figures {
		if fc.Fig == "14" && (fc.Covered != stride || !fc.Rendered) {
			t.Errorf("figure 14 coverage after one workload: %+v", fc)
		}
	}
	if _, ok := res.SecurityRows("6"); ok {
		t.Error("figure 6 rendered without any tally folds")
	}

	// Fold one security cell's batches: still not rendered (security is
	// all-or-nothing at the figure level), but its cell counts as
	// covered.
	nSim := len(m.Workloads) * stride
	want := (m.Security.Trials + m.Security.Batch - 1) / m.Security.Batch
	for b := 0; b < want; b++ {
		if folded, err := acc.FoldJob(nSim+b, store); err != nil || !folded {
			t.Fatalf("fold tally batch %d = (%v, %v)", b, folded, err)
		}
	}
	res, cov, err = acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.SecurityRows("6"); ok {
		t.Error("figure 6 rendered at partial cell coverage")
	}
	for _, fc := range cov.Figures {
		if fc.Fig == "6" && (fc.Covered != 1 || fc.Rendered) {
			t.Errorf("figure 6 coverage after one complete cell: %+v", fc)
		}
	}
}

// TestAccumulatorFoldKeyTolerance pins FoldKey's feed-facing contract:
// unknown keys (a shared store completing other sweeps' jobs) are
// ignored without error, absent entries report not-folded, an
// out-of-range job index errors, and Missing audits exactly the
// unfolded jobs in merge format.
func TestAccumulatorFoldKeyTolerance(t *testing.T) {
	m := mustPlanSecurity(t, []string{"6"})
	store := fillStore(t, m, t.TempDir(), nil)
	acc, err := m.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	if folded, err := acc.FoldKey(strings.Repeat("ab", 32), store); folded || err != nil {
		t.Errorf("unknown key folded: (%v, %v), want (false, nil)", folded, err)
	}
	empty, err := simcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if folded, err := acc.FoldJob(0, empty); folded || err != nil {
		t.Errorf("fold against an empty store: (%v, %v), want (false, nil)", folded, err)
	}
	if _, err := acc.FoldJob(len(m.Jobs), store); err == nil {
		t.Error("out-of-range job index did not error")
	}
	if folded, err := acc.FoldJob(3, store); err != nil || !folded {
		t.Fatalf("fold job 3 = (%v, %v)", folded, err)
	}
	missing := acc.Missing()
	if len(missing) != len(m.Jobs)-1 {
		t.Fatalf("%d missing after one fold, want %d", len(missing), len(m.Jobs)-1)
	}
	if want := m.Jobs[0].desc(); missing[0] != want {
		t.Errorf("missing[0] = %q, want %q", missing[0], want)
	}
}
