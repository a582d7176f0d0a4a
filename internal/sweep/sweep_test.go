package sweep

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/objstore"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simcache"
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

func mustPlan(t *testing.T) *Manifest {
	t.Helper()
	m, err := Plan("14", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustPlanEvaluation(t *testing.T, figs []string) *Manifest {
	t.Helper()
	m, err := PlanEvaluation(figs, quickOpts(), PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fillStore runs the given manifest jobs (every job when jobs is nil)
// in order into the store directory dir, as workers would have pushed
// them, and returns the store.
func fillStore(t *testing.T, m *Manifest, dir string, jobs []int) *simcache.Cache {
	t.Helper()
	p, err := m.expand()
	if err != nil {
		t.Fatal(err)
	}
	store, err := simcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if jobs == nil {
		jobs = make([]int, len(m.Jobs))
		for i := range jobs {
			jobs[i] = i
		}
	}
	var r simcache.Resolver
	for _, ji := range jobs {
		if _, err := p.run(m, ji, store, &r); err != nil {
			t.Fatalf("%s: %v", m.Jobs[ji].desc(), err)
		}
	}
	return store
}

// runTwoWorkers drains m's queue with two concurrently running RunWork
// workers, w0 and w1, over a loopback daemon that folds as results
// land, and returns the daemon's store directory, a client namespaced
// to m, and the daemon's request log.
func runTwoWorkers(t *testing.T, m *Manifest) (string, *objstore.Client, *requestLog) {
	t.Helper()
	store, c, log := serveStore(t, m, []int{}, true)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = m.RunWork(c, fmt.Sprintf("w%d", i), 1, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return store, c, log
}

// mergeBothWays merges a drained sweep from the daemon's snapshot
// (MergeServer) and by re-folding its store directory (Merge), and
// fails unless the two agree.
func mergeBothWays(t *testing.T, m *Manifest, store string, c *objstore.Client) *Results {
	t.Helper()
	got, err := m.MergeServer("", c, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	refold, err := m.Merge(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, refold) {
		t.Errorf("server merge differs from the re-fold of the daemon's store:\nserver: %+v\nrefold: %+v", got, refold)
	}
	return got
}

// TestPlanIsDeterministic pins a single figure's job order: every
// baseline first, in workload order, then each workload's mitigated
// cells in label order, which is the order the queue hands them out.
func TestPlanIsDeterministic(t *testing.T) {
	a := mustPlan(t)
	b := mustPlan(t)
	if !reflect.DeepEqual(a, b) {
		t.Error("two plans of the same sweep differ")
	}
	// 3 workloads x (baseline + rrs + scale-srs); a single figure has
	// no duplicate cells, so nothing dedupes away.
	if len(a.Jobs) != 9 {
		t.Fatalf("planned %d jobs, want 9", len(a.Jobs))
	}
	labels := a.Figures[0].Labels
	var want []Job
	for _, w := range a.Workloads {
		want = append(want, Job{Workload: w})
	}
	for _, w := range a.Workloads {
		for _, l := range labels {
			want = append(want, Job{Workload: w, Label: l})
		}
	}
	for ji, j := range a.Jobs {
		if j.Workload != want[ji].Workload || j.Label != want[ji].Label {
			t.Errorf("job %d is (%s, %q), want (%s, %q): baselines first, then mitigated cells",
				ji, j.Workload, j.Label, want[ji].Workload, want[ji].Label)
		}
	}
	seen := map[string]bool{}
	for _, j := range a.Jobs {
		if j.Key == "" || seen[j.Key] {
			t.Fatalf("job key empty or duplicated: %+v", j)
		}
		seen[j.Key] = true
	}
	if len(a.Figures) != 1 || a.Figures[0].Fig != "14" {
		t.Fatalf("single-figure plan carries figures %+v", a.Figures)
	}
	// The fan-out maps each figure cell (workload-major: baseline, then
	// each label) to its job.
	stride := len(labels) + 1
	for ci, ji := range a.Figures[0].Cells {
		wi, li := ci/stride, ci%stride-1
		wantJob := wi
		if li >= 0 {
			wantJob = len(a.Workloads) + wi*len(labels) + li
		}
		if ji != wantJob {
			t.Errorf("figure cell %d (workload %d) fans out to job %d, want %d", ci, wi, ji, wantJob)
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
	eval := mustPlanEvaluation(t, figs)
	perFigure := 0
	for _, id := range figs {
		m, err := Plan(id, quickOpts())
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
	if !reflect.DeepEqual(eval, mustPlanEvaluation(t, figs)) {
		t.Error("two evaluation plans of the same sweep differ")
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	if _, err := Plan("nope", quickOpts()); err == nil {
		t.Error("unknown figure accepted")
	}
	if _, err := PlanEvaluation(nil, quickOpts(), PlanOptions{}); err == nil {
		t.Error("empty figure set accepted")
	}
	if _, err := PlanEvaluation([]string{"14", "14"}, quickOpts(), PlanOptions{}); err == nil {
		t.Error("duplicate figure accepted")
	}
}

func TestManifestRoundTripsThroughJSON(t *testing.T) {
	m := mustPlanEvaluation(t, []string{"4", "14"})
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

	// Schema-3 manifests planned while the sweep still sharded at plan
	// time carry shards, strategy and cost_source fields and a shard and
	// cost per job; they must still load, to the same manifest, and
	// validate.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(data, []byte(`"figures":`),
		[]byte(`"shards": 2, "strategy": "cost", "cost_source": "measured-wall-seconds", "figures":`), 1)
	old = bytes.ReplaceAll(old, []byte(`"key":`), []byte(`"cost": 1.5e5, "shard": 1, "key":`))
	if bytes.Count(old, []byte(`"shard": 1`)) != len(m.Jobs) {
		t.Fatal("saved manifest has no per-job key field to prefix")
	}
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err = LoadManifest(path); err != nil {
		t.Fatalf("a manifest carrying plan-time shard fields does not load: %v", err)
	}
	if !reflect.DeepEqual(m, loaded) {
		t.Errorf("a manifest carrying plan-time shard fields loads differently:\nsaved:  %+v\nloaded: %+v", m, loaded)
	}
	if err := loaded.Validate(); err != nil {
		t.Errorf("a manifest carrying plan-time shard fields does not validate: %v", err)
	}
}

// TestValidateRejectsCorruptManifests is the table test of the
// hardened structural validation: every corruption an operator can
// realistically produce (hand-edits, truncation)
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
			m := mustPlanEvaluation(t, []string{"4", "14"})
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
			m := mustPlanEvaluation(t, []string{"4", "14"})
			mutate(m)
			if err := m.Validate(); err == nil {
				t.Errorf("tampered manifest (%s) validated", name)
			}
		})
	}
}

// TestRejectsFirstOccurrenceJobOrder feeds Validate and NewAccumulator
// a two-workload manifest whose jobs are in first-occurrence order,
// each figure's cells in matrix order, as builds that did not claim
// baselines first planned it. Its keys and fan-out are consistent, so
// only the job order is wrong: both refuse it and say to re-plan.
func TestRejectsFirstOccurrenceJobOrder(t *testing.T) {
	opt := quickOpts()
	opt.Workloads = []string{"gcc", "mcf"}
	m, err := PlanEvaluation([]string{"4", "14"}, opt, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	seen := map[int]bool{}
	for _, f := range m.Figures {
		for _, ji := range f.Cells {
			if !seen[ji] {
				seen[ji] = true
				order = append(order, ji)
			}
		}
	}
	if len(order) != len(m.Jobs) {
		t.Fatalf("the figures reference %d of %d jobs", len(order), len(m.Jobs))
	}
	old := *m
	old.Jobs = make([]Job, len(order))
	at := make([]int, len(order))
	for oi, ji := range order {
		old.Jobs[oi] = m.Jobs[ji]
		at[ji] = oi
	}
	old.Figures = make([]Figure, len(m.Figures))
	for fi, f := range m.Figures {
		f.Cells = make([]int, len(f.Cells))
		for ci, ji := range m.Figures[fi].Cells {
			f.Cells[ci] = at[ji]
		}
		old.Figures[fi] = f
	}
	if reflect.DeepEqual(old.Jobs, m.Jobs) {
		t.Fatal("first-occurrence order equals the planned order; the test proves nothing")
	}
	if err := old.ValidateStructure(); err != nil {
		t.Fatalf("the reordered manifest is not self-consistent: %v", err)
	}
	const want = "re-run plan with this build"
	if err := old.Validate(); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("Validate = %v, want an error ending %q", err, want)
	}
	if _, err := old.NewAccumulator(); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("NewAccumulator = %v, want an error ending %q", err, want)
	}
}

// TestShardedSweepMatchesInProcessMatrix is the in-process half of the
// determinism contract (the process-boundary half is the end-to-end
// test): two work-stealing workers draining the queue of a loopback
// daemon must yield rows bit-identical to report.Fig14 on the same
// options, whether read from the daemon's fold or re-folded from its
// store.
func TestShardedSweepMatchesInProcessMatrix(t *testing.T) {
	opt := quickOpts()
	report.ResetRunMemo()
	want, err := report.Fig14(io.Discard, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireNonTrivial(t, want)

	m := mustPlan(t)
	store, c, _ := runTwoWorkers(t, m)
	rows, ok := mergeBothWays(t, m, store, c).FigureRows("14")
	if !ok {
		t.Fatal("merged results carry no figure 14")
	}
	if !reflect.DeepEqual(want, rows) {
		t.Errorf("work-stealing rows differ from in-process rows:\nwant: %+v\ngot:  %+v", want, rows)
	}

	// One worker's two goroutines share one Resolver, so whatever the
	// timing, the hot cells resume from their baselines' tapes: the
	// oracle must cover resumed cells too.
	store, c, _ = serveStore(t, m, []int{}, true)
	stats, err := m.RunWork(c, "solo", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed == 0 {
		t.Fatalf("no cell was resumed from its baseline (%+v); the oracle does not exercise sim.Resume", stats)
	}
	rows, _ = mergeBothWays(t, m, store, c).FigureRows("14")
	if !reflect.DeepEqual(want, rows) {
		t.Errorf("rows with resumed cells differ from in-process rows:\nwant: %+v\ngot:  %+v", want, rows)
	}
}

// TestEvaluationSweepMatchesPerFigureRuns is the whole-evaluation
// analogue: one deduplicated manifest spanning several figures,
// drained by two work-stealing workers and merged once, must
// reconstruct every figure's rows bit-identical to that figure's own
// in-process run.
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

	m := mustPlanEvaluation(t, figs)
	store, c, _ := runTwoWorkers(t, m)
	res := mergeBothWays(t, m, store, c)
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

// TestMergeReportsMissingShard proves an incomplete sweep fails loudly:
// with one worker's share of the jobs never stored, the merge names
// the missing jobs. A store directory that does not exist fails too,
// naming the directory, and is not created.
func TestMergeReportsMissingShard(t *testing.T) {
	m := mustPlan(t)
	dir := t.TempDir()
	fillStore(t, m, dir, []int{0, 1, 2, 3})
	_, err := m.Merge(dir, nil)
	if err == nil {
		t.Fatal("merge of an incomplete sweep succeeded")
	}
	for _, ji := range []int{4, 8} {
		if got := err.Error(); !strings.Contains(got, m.Jobs[ji].desc()) {
			t.Errorf("merge error does not name missing job %s: %v", m.Jobs[ji].desc(), err)
		}
	}
	missing := filepath.Join(dir, "no-such-store")
	if _, err := m.Merge(missing, nil); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("merge of a missing store directory: err = %v, want it to name %s", err, missing)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("merge created the missing store directory (stat: %v)", err)
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
	m := mustPlan(t)
	dir := t.TempDir()
	fillStore(t, m, filepath.Join(dir, "store"), nil)
	res, err := m.Merge(filepath.Join(dir, "store"), nil)
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
