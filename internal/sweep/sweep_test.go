package sweep

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sim"
)

// quickOpts is a small matrix that still spans baseline sharing and
// hot workloads. The budget is sized so swaps actually fire (gcc and
// gups cross T_S within the compressed window): the normalized rows
// then carry full-precision non-1.0 values and the bit-identity
// comparisons below cannot pass vacuously.
func quickOpts() report.PerfOptions {
	return report.PerfOptions{
		Workloads: []string{"gcc", "mcf", "gups"},
		Cores:     2,
		Sim:       sim.Options{Instructions: 200_000, WindowNS: 200_000},
	}
}

// requireNonTrivial fails the calling test if no row carries a
// normalized value different from 1.0 — a vacuously identical matrix
// would make a bit-identity comparison meaningless.
func requireNonTrivial(t *testing.T, rows []report.PerfRow) {
	t.Helper()
	for _, r := range rows {
		for _, v := range r.Norm {
			if v != 1.0 {
				return
			}
		}
	}
	t.Fatal("every normalized value is exactly 1.0; the matrix exercises no mitigation work")
}

func mustPlan(t *testing.T, shards int, strategy string) *Manifest {
	t.Helper()
	m, err := Plan("14", quickOpts(), shards, strategy)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustPlanEvaluation(t *testing.T, figs []string, shards int, strategy string) *Manifest {
	t.Helper()
	m, err := PlanEvaluation(figs, quickOpts(), PlanOptions{Shards: shards, Strategy: strategy})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPlanIsDeterministic(t *testing.T) {
	a := mustPlan(t, 3, StrategyCost)
	b := mustPlan(t, 3, StrategyCost)
	if !reflect.DeepEqual(a, b) {
		t.Error("two plans of the same sweep differ")
	}
	// 3 workloads x (baseline + rrs + scale-srs) in matrix order; a
	// single figure has no duplicate cells, so nothing dedupes away.
	if len(a.Jobs) != 9 {
		t.Fatalf("planned %d jobs, want 9", len(a.Jobs))
	}
	if a.Jobs[0].Workload != "gcc" || a.Jobs[0].Label != "" ||
		a.Jobs[1].Label != "rrs" || a.Jobs[2].Label != "scale-srs" {
		t.Errorf("matrix order broken: %+v", a.Jobs[:3])
	}
	seen := map[string]bool{}
	for _, j := range a.Jobs {
		if j.Key == "" || seen[j.Key] {
			t.Fatalf("job key empty or duplicated: %+v", j)
		}
		seen[j.Key] = true
		if j.Cost <= 0 {
			t.Errorf("job %s has cost %g", j.desc(), j.Cost)
		}
	}
	if len(a.Figures) != 1 || a.Figures[0].Fig != "14" {
		t.Fatalf("single-figure plan carries figures %+v", a.Figures)
	}
	// A single figure's fan-out is the identity map.
	for ci, ji := range a.Figures[0].Cells {
		if ci != ji {
			t.Fatalf("single-figure fan-out is not the identity: cell %d -> job %d", ci, ji)
		}
	}
	if err := a.Validate(); err != nil {
		t.Errorf("fresh plan does not validate: %v", err)
	}
}

// TestEvaluationPlanDeduplicates is the planning half of the tentpole
// contract: a whole-evaluation plan must carry strictly fewer jobs than
// the same figures planned one by one, every shared cell (baselines,
// configs recurring across figures) appearing exactly once, while each
// figure's fan-out still covers its full matrix.
func TestEvaluationPlanDeduplicates(t *testing.T) {
	figs := report.PerfFigureIDs()
	eval, err := PlanEvaluation(figs, quickOpts(), PlanOptions{Shards: 2, Strategy: StrategyCost})
	if err != nil {
		t.Fatal(err)
	}
	perFigure := 0
	for _, id := range figs {
		m, err := Plan(id, quickOpts(), 2, StrategyCost)
		if err != nil {
			t.Fatal(err)
		}
		perFigure += len(m.Jobs)
	}
	if len(eval.Jobs) >= perFigure {
		t.Errorf("evaluation plan has %d jobs, per-figure plans total %d: nothing deduplicated", len(eval.Jobs), perFigure)
	}
	// Each of the 3 workloads has exactly one baseline job, however many
	// figures reference it.
	baselines := 0
	for _, j := range eval.Jobs {
		if j.Label == "" {
			baselines++
		}
	}
	if baselines != 3 {
		t.Errorf("evaluation plan has %d baseline jobs, want 3 (one per workload)", baselines)
	}
	// Every figure's fan-out covers its whole matrix and resolves to
	// jobs of the right workload.
	for _, f := range eval.Figures {
		stride := len(f.Labels) + 1
		if len(f.Cells) != len(eval.Workloads)*stride {
			t.Errorf("figure %s fan-out covers %d cells, want %d", f.Fig, len(f.Cells), len(eval.Workloads)*stride)
		}
		for ci, ji := range f.Cells {
			if want := eval.Workloads[ci/stride]; eval.Jobs[ji].Workload != want {
				t.Errorf("figure %s cell %d fans out to job of workload %s, want %s", f.Fig, ci, eval.Jobs[ji].Workload, want)
			}
		}
	}
	if err := eval.Validate(); err != nil {
		t.Errorf("evaluation plan does not validate: %v", err)
	}
	if !reflect.DeepEqual(eval, mustPlanEvaluation(t, figs, 2, StrategyCost)) {
		t.Error("two evaluation plans of the same sweep differ")
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	if _, err := Plan("nope", quickOpts(), 2, StrategyRoundRobin); err == nil {
		t.Error("unknown figure accepted")
	}
	if _, err := Plan("14", quickOpts(), 0, StrategyRoundRobin); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := Plan("14", quickOpts(), 2, "random"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := PlanEvaluation(nil, quickOpts(), PlanOptions{Shards: 2, Strategy: StrategyRoundRobin}); err == nil {
		t.Error("empty figure set accepted")
	}
	if _, err := PlanEvaluation([]string{"14", "14"}, quickOpts(), PlanOptions{Shards: 2, Strategy: StrategyRoundRobin}); err == nil {
		t.Error("duplicate figure accepted")
	}
}

func TestShardAssignmentCoversAllShards(t *testing.T) {
	for _, strategy := range []string{StrategyRoundRobin, StrategyCost} {
		m := mustPlan(t, 2, strategy)
		counts := map[int]int{}
		for _, j := range m.Jobs {
			counts[j.Shard]++
		}
		if len(counts) != 2 {
			t.Errorf("%s: jobs landed on %d shards, want 2", strategy, len(counts))
		}
		// 9 jobs over 2 shards: no shard may hold more than 2/3 of them
		// under either strategy (round-robin gives 5/4; LPT must not
		// degenerate further on a near-uniform matrix).
		for s, n := range counts {
			if n > 6 {
				t.Errorf("%s: shard %d holds %d of 9 jobs", strategy, s, n)
			}
		}
	}
}

func TestCostStrategyBalancesLoad(t *testing.T) {
	m := mustPlan(t, 2, StrategyCost)
	loads := map[int]float64{}
	var total float64
	for _, j := range m.Jobs {
		loads[j.Shard] += j.Cost
		total += j.Cost
	}
	for s, l := range loads {
		if frac := l / total; frac > 0.75 {
			t.Errorf("shard %d carries %.0f%% of the estimated cost", s, frac*100)
		}
	}
}

func TestManifestRoundTripsThroughJSON(t *testing.T) {
	m := mustPlanEvaluation(t, []string{"4", "14"}, 2, StrategyRoundRobin)
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, loaded) {
		t.Errorf("manifest changed across save/load:\nsaved:  %+v\nloaded: %+v", m, loaded)
	}
	if err := loaded.Validate(); err != nil {
		t.Errorf("loaded manifest does not validate: %v", err)
	}

	// Manifests planned while measured costs still fed -strategy cost
	// carry a "cost_source" field; they must still load, to the same
	// manifest.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"strategy":`), []byte(`"cost_source": "measured-wall-seconds", "strategy":`), 1)
	if bytes.Equal(old, data) {
		t.Fatal("saved manifest has no strategy field to prefix")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadManifest(path); err != nil {
		t.Fatalf("a manifest carrying cost_source does not load: %v", err)
	}
	if !reflect.DeepEqual(m, loaded) {
		t.Errorf("a manifest carrying cost_source loads differently:\nsaved:  %+v\nloaded: %+v", m, loaded)
	}
}

// TestValidateRejectsCorruptManifests is the table test of the
// hardened structural validation: every corruption an operator can
// realistically produce (hand-edits, mismatched -shards, truncation)
// must be rejected with an error naming the offending job or figure
// and telling the operator what to do.
func TestValidateRejectsCorruptManifests(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Manifest)
		wantErr []string
	}{
		{"stale schema", func(m *Manifest) { m.Schema = 1 },
			[]string{"schema 1", "re-run plan"}},
		{"zero shards", func(m *Manifest) { m.Shards = 0 },
			[]string{"0 shards", "at least 1"}},
		{"no figures", func(m *Manifest) { m.Figures = nil },
			[]string{"no figures"}},
		{"no jobs", func(m *Manifest) { m.Jobs = nil },
			[]string{"no jobs"}},
		{"duplicate figure", func(m *Manifest) { m.Figures = append(m.Figures, m.Figures[0]) },
			[]string{"appears twice", "re-run plan"}},
		{"empty job key", func(m *Manifest) { m.Jobs[2].Key = "" },
			[]string{"job 2", "empty cache key"}},
		{"duplicate job key", func(m *Manifest) { m.Jobs[3].Key = m.Jobs[4].Key },
			[]string{"jobs 3", "and 4", "share cache key", "re-run plan"}},
		{"negative shard", func(m *Manifest) { m.Jobs[1].Shard = -1 },
			[]string{"job 1", "shard -1", "valid: 0…1"}},
		{"shard beyond range", func(m *Manifest) { m.Jobs[1].Shard = 7 },
			[]string{"job 1", "shard 7", "2 shards", "valid: 0…1"}},
		{"fan-out beyond jobs", func(m *Manifest) { m.Figures[0].Cells[5] = len(m.Jobs) },
			[]string{"figure 4", "cell 5", "fan-out map is corrupt"}},
		{"negative fan-out", func(m *Manifest) { m.Figures[1].Cells[0] = -2 },
			[]string{"figure 14", "cell 0", "fan-out map is corrupt"}},
		{"orphaned job", func(m *Manifest) {
			// Point every reference to gcc's baseline job away from it.
			for fi := range m.Figures {
				for ci := range m.Figures[fi].Cells {
					if m.Figures[fi].Cells[ci] == 0 {
						m.Figures[fi].Cells[ci] = 1
					}
				}
			}
		}, []string{"job 0", "referenced by no figure"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mustPlanEvaluation(t, []string{"4", "14"}, 2, StrategyRoundRobin)
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("corrupt manifest validated")
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

func TestExpandRejectsTamperedManifest(t *testing.T) {
	tamper := map[string]func(*Manifest){
		"binary":        func(m *Manifest) { m.Binary = "deadbeef" },
		"job key":       func(m *Manifest) { m.Jobs[3].Key = "0123456789abcdef" },
		"job identity":  func(m *Manifest) { m.Jobs[0].Workload = "gups" },
		"dropped job":   func(m *Manifest) { m.Jobs = m.Jobs[:len(m.Jobs)-1] },
		"workload list": func(m *Manifest) { m.Workloads = m.Workloads[:2] },
		"swapped fan-out": func(m *Manifest) {
			c := m.Figures[0].Cells
			c[0], c[3] = c[3], c[0]
		},
	}
	for name, mutate := range tamper {
		t.Run(name, func(t *testing.T) {
			m := mustPlanEvaluation(t, []string{"4", "14"}, 2, StrategyRoundRobin)
			mutate(m)
			if err := m.Validate(); err == nil {
				t.Errorf("tampered manifest (%s) validated", name)
			}
		})
	}
}

// TestShardedSweepMatchesInProcessMatrix is the in-process half of the
// determinism contract (the process-boundary half is the end-to-end
// test): running every shard into its own cache directory and merging
// must yield rows bit-identical to report.Fig14 on the same options.
func TestShardedSweepMatchesInProcessMatrix(t *testing.T) {
	opt := quickOpts()
	report.ResetRunMemo()
	want, err := report.Fig14(io.Discard, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireNonTrivial(t, want)

	for _, strategy := range []string{StrategyRoundRobin, StrategyCost} {
		t.Run(strategy, func(t *testing.T) {
			m, err := Plan("14", opt, 2, strategy)
			if err != nil {
				t.Fatal(err)
			}
			base := t.TempDir()
			var dirs []string
			for shard := 0; shard < m.Shards; shard++ {
				dir := filepath.Join(base, "worker", string(rune('0'+shard)))
				dirs = append(dirs, dir)
				stats, err := m.RunShard(shard, dir, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if stats.Jobs == 0 {
					t.Fatalf("shard %d ran no jobs", shard)
				}
			}
			res, err := m.Merge(filepath.Join(base, "merged"), dirs, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows, ok := res.FigureRows("14")
			if !ok {
				t.Fatal("merged results carry no figure 14")
			}
			if !reflect.DeepEqual(want, rows) {
				t.Errorf("sharded rows differ from in-process rows:\nwant: %+v\ngot:  %+v", want, rows)
			}
		})
	}
}

// TestEvaluationSweepMatchesPerFigureRuns is the whole-evaluation
// analogue: one deduplicated manifest spanning several figures, run
// shard by shard and merged once, must reconstruct every figure's rows
// bit-identical to that figure's own in-process run.
func TestEvaluationSweepMatchesPerFigureRuns(t *testing.T) {
	opt := quickOpts()
	figs := []string{"4", "12", "14"}
	want := map[string][]report.PerfRow{}
	for _, id := range figs {
		report.ResetRunMemo()
		var err error
		switch id {
		case "4":
			want[id], err = report.Fig4(io.Discard, opt)
		case "12":
			want[id], err = report.Fig12(io.Discard, opt)
		case "14":
			want[id], err = report.Fig14(io.Discard, opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		requireNonTrivial(t, want[id])
	}

	m := mustPlanEvaluation(t, figs, 2, StrategyCost)
	base := t.TempDir()
	var dirs []string
	totalJobs := 0
	for shard := 0; shard < m.Shards; shard++ {
		dir := filepath.Join(base, "worker", string(rune('0'+shard)))
		dirs = append(dirs, dir)
		stats, err := m.RunShard(shard, dir, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalJobs += stats.Jobs
	}
	if totalJobs != len(m.Jobs) {
		t.Fatalf("shards ran %d jobs, manifest lists %d", totalJobs, len(m.Jobs))
	}
	res, err := m.Merge(filepath.Join(base, "merged"), dirs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figures) != len(figs) {
		t.Fatalf("merged results cover %d figures, want %d", len(res.Figures), len(figs))
	}
	for _, id := range figs {
		rows, ok := res.FigureRows(id)
		if !ok {
			t.Errorf("merged results carry no figure %s", id)
			continue
		}
		if !reflect.DeepEqual(want[id], rows) {
			t.Errorf("figure %s: evaluation-merged rows differ from its in-process run:\nwant: %+v\ngot:  %+v", id, want[id], rows)
		}
	}
}

// TestRunShardIsIdempotent re-runs a shard over its own cache: the
// second pass must be all hits and leave the merged rows unchanged.
func TestRunShardIsIdempotent(t *testing.T) {
	m := mustPlan(t, 1, StrategyRoundRobin)
	dir := t.TempDir()
	cold, err := m.RunShard(0, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Hits != 0 {
		t.Errorf("cold shard run reported %d hits", cold.Hits)
	}
	warm, err := m.RunShard(0, dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hits != warm.Jobs {
		t.Errorf("warm shard run: %d of %d jobs hit", warm.Hits, warm.Jobs)
	}
}

// TestMergeReportsMissingShard proves an incomplete sweep fails loudly,
// naming the shard whose results are absent.
func TestMergeReportsMissingShard(t *testing.T) {
	m := mustPlan(t, 2, StrategyRoundRobin)
	dir := t.TempDir()
	if _, err := m.RunShard(0, filepath.Join(dir, "w0"), 0, nil); err != nil {
		t.Fatal(err)
	}
	// Worker 1 never ran.
	_, err := m.Merge(filepath.Join(dir, "merged"), []string{filepath.Join(dir, "w0")}, nil)
	if err == nil {
		t.Fatal("merge of an incomplete sweep succeeded")
	}
	if got := err.Error(); !strings.Contains(got, "shard 1") {
		t.Errorf("merge error does not name the missing shard: %v", err)
	}
}

// TestMergedResultsRenderAndRoundTrip exercises the Results artifact:
// save, load, and render must reproduce the figure output of the
// in-process run byte for byte.
func TestMergedResultsRenderAndRoundTrip(t *testing.T) {
	opt := quickOpts()
	report.ResetRunMemo()
	var wantBuf bytes.Buffer
	wantRows, err := report.Fig14(&wantBuf, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := mustPlan(t, 1, StrategyRoundRobin)
	dir := t.TempDir()
	if _, err := m.RunShard(0, filepath.Join(dir, "w0"), 0, nil); err != nil {
		t.Fatal(err)
	}
	res, err := m.Merge(filepath.Join(dir, "merged"), []string{filepath.Join(dir, "w0")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "results.json")
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := loaded.FigureRows("14")
	if !ok {
		t.Fatal("loaded results carry no figure 14")
	}
	if !reflect.DeepEqual(wantRows, rows) {
		t.Error("rows changed across results save/load")
	}
	var gotBuf bytes.Buffer
	if err := loaded.Render(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if wantBuf.String() != gotBuf.String() {
		t.Errorf("rendered figure differs from in-process output:\nwant:\n%s\ngot:\n%s", wantBuf.String(), gotBuf.String())
	}
}
