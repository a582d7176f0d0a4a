package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/objstore"
	"repro/internal/report"
	"repro/internal/sim"
)

// These tests drive MergeServer against in-process daemons: the real
// objstore server with the sweep accumulator as its figure folder,
// and scripted daemons serving hand-damaged snapshots.

// tinyMixedManifest plans one workload of Fig. 14 plus the Monte-Carlo
// Fig. 6 and the closed-form Table IV, small enough to run in-process.
func tinyMixedManifest(t *testing.T) *Manifest {
	t.Helper()
	opt := report.PerfOptions{
		Workloads: []string{"gcc"},
		Cores:     2,
		Sim:       sim.Options{Instructions: 50_000, WindowNS: 200_000},
	}
	m, err := PlanEvaluation([]string{"14", "6", "t4"}, opt, secPlanOpts())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// requestLog records every request a daemon answers, as "METHOD path".
type requestLog struct {
	mu   sync.Mutex
	reqs []string
}

func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+r.URL.Path)
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

func (l *requestLog) list() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.reqs...)
}

// serveStore runs the given jobs of m (every job when jobs is nil) into
// a fresh store directory and serves it from an in-process daemon with
// m registered — with the sweep accumulator as figure folder when
// folder is set. It returns the store directory, a client namespaced to
// m, and the daemon's request log.
func serveStore(t *testing.T, m *Manifest, jobs []int, folder bool) (string, *objstore.Client, *requestLog) {
	t.Helper()
	store := t.TempDir()
	cache := fillStore(t, m, store, jobs)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var opts objstore.ServerOptions
	if folder {
		opts.NewFolder = func(raw []byte) (objstore.FigureFolder, error) {
			var m Manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, err
			}
			return m.NewAccumulator()
		}
	}
	srv := objstore.NewServer(cache, opts)
	reg, err := srv.Register(raw)
	if err != nil {
		t.Fatal(err)
	}
	log := &requestLog{}
	ts := httptest.NewServer(log.wrap(srv.Handler()))
	t.Cleanup(ts.Close)
	return store, objstore.NewClient(ts.URL).ForManifest(reg.Fingerprint), log
}

// TestMergeServerReadsOneSnapshot pins the transport's I/O: a server
// merge is exactly one figures GET — no entry GETs, no PUTs, nothing
// written under mergedDir even with packing requested — and its
// Results equal Merge re-folding the daemon's store directory.
func TestMergeServerReadsOneSnapshot(t *testing.T) {
	m := tinyMixedManifest(t)
	store, c, log := serveStore(t, m, nil, true)
	mergedDir := filepath.Join(t.TempDir(), "merged")
	got, err := m.MergeServer(mergedDir, c, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reqs, want := log.list(), []string{"GET /m/" + c.Fingerprint() + "/figures"}; !reflect.DeepEqual(reqs, want) {
		t.Errorf("server merge made requests %q, want exactly %q", reqs, want)
	}
	if _, err := os.Stat(mergedDir); !os.IsNotExist(err) {
		t.Errorf("server merge touched mergedDir (stat: %v)", err)
	}
	want, err := m.Merge(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("server merge differs from the re-fold of the daemon's store:\nserver: %+v\nrefold: %+v", got, want)
	}
	if len(got.Figures) != 1 || len(got.Security) != 2 {
		t.Errorf("server merge covers %d performance and %d security figures, want 1 and 2", len(got.Figures), len(got.Security))
	}
}

// TestMergeServerRejectsUnboundClient: a client without a manifest
// namespace addresses no queue, so the merge fails before any request.
func TestMergeServerRejectsUnboundClient(t *testing.T) {
	m := tinyMixedManifest(t)
	_, c, log := serveStore(t, m, []int{}, true)
	_, err := m.MergeServer("", objstore.NewClient(c.Base()), false, nil)
	if err == nil || !strings.Contains(err.Error(), "namespaced") {
		t.Fatalf("unbound client: err = %v, want a namespacing error", err)
	}
	if reqs := log.list(); len(reqs) != 0 {
		t.Errorf("rejected merge still made requests %q", reqs)
	}
}

// TestMergeServerIncompleteSnapshot: with half the jobs stored, the
// merge fails naming every incomplete figure with its covered/total
// cell count.
func TestMergeServerIncompleteSnapshot(t *testing.T) {
	m := tinyMixedManifest(t)
	var half []int
	for ji := 0; ji < len(m.Jobs); ji += 2 {
		half = append(half, ji)
	}
	_, c, _ := serveStore(t, m, half, true)
	data, err := c.FiguresJSON()
	if err != nil {
		t.Fatal(err)
	}
	part, err := DecodePartial(data)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.MergeServer("", c, false, nil)
	if err == nil || !strings.Contains(err.Error(), "merge incomplete") {
		t.Fatalf("half-stored sweep: err = %v, want an incomplete-merge error", err)
	}
	incomplete := 0
	for _, fc := range part.Coverage.Figures {
		if fc.Covered < fc.Cells {
			incomplete++
			if want := fmt.Sprintf("%s %d/%d cells", fc.Fig, fc.Covered, fc.Cells); !strings.Contains(err.Error(), want) {
				t.Errorf("error does not name %q: %v", want, err)
			}
		}
	}
	if incomplete == 0 {
		t.Fatalf("half the jobs covered every figure; the test exercises nothing (coverage %+v)", part.Coverage)
	}
}

// TestMergeServerNoFigureFolder: a daemon that keeps no figure folder
// for the manifest has no snapshot to merge from, and the error says
// why.
func TestMergeServerNoFigureFolder(t *testing.T) {
	m := tinyMixedManifest(t)
	_, c, _ := serveStore(t, m, nil, false)
	_, err := m.MergeServer("", c, false, nil)
	if err == nil || !strings.Contains(err.Error(), "no figure folder") {
		t.Fatalf("folder-less daemon: err = %v, want it to name the missing figure folder", err)
	}
}

// TestMergeServerRejectsMismatchedSnapshot serves complete snapshots
// whose structure disagrees with this build's plan; each must fail the
// merge naming the damaged figure.
func TestMergeServerRejectsMismatchedSnapshot(t *testing.T) {
	m := tinyMixedManifest(t)
	_, c, _ := serveStore(t, m, nil, true)
	good, err := c.FiguresJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MergeServer("", c, false, nil); err != nil {
		t.Fatalf("undamaged snapshot: %v", err)
	}
	for _, tc := range []struct {
		name, fig string
		damage    func(r *Results)
	}{
		{"perf figure renamed", "14", func(r *Results) { r.Figures[0].Fig = "4" }},
		{"perf figure dropped", "14", func(r *Results) { r.Figures = nil }},
		{"perf figure added", "12", func(r *Results) { r.Figures = append(r.Figures, FigureResults{Fig: "12"}) }},
		{"labels changed", "14", func(r *Results) { r.Figures[0].Labels = r.Figures[0].Labels[:1] }},
		{"row dropped", "14", func(r *Results) { r.Figures[0].Rows = nil }},
		{"row workload renamed", "14", func(r *Results) { r.Figures[0].Rows[0].Workload = "mcf" }},
		{"row value dropped", "14", func(r *Results) {
			for l := range r.Figures[0].Rows[0].Norm {
				delete(r.Figures[0].Rows[0].Norm, l)
				break
			}
		}},
		{"security figure dropped", "t4", func(r *Results) { r.Security = r.Security[:1] }},
		{"security figure reordered", "6", func(r *Results) { r.Security[0], r.Security[1] = r.Security[1], r.Security[0] }},
		{"security figure added", "10", func(r *Results) { r.Security = append(r.Security, SecurityResults{Fig: "10"}) }},
		{"security row dropped", "6", func(r *Results) { r.Security[0].Rows = r.Security[0].Rows[1:] }},
		{"security row relabelled", "6", func(r *Results) { r.Security[0].Rows[0].Label = "bogus" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var p Partial
			if err := json.Unmarshal(good, &p); err != nil {
				t.Fatal(err)
			}
			tc.damage(p.Results)
			bad, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/m/"+c.Fingerprint()+"/figures" {
					http.NotFound(w, r)
					return
				}
				w.Write(bad)
			}))
			defer ts.Close()
			_, err = m.MergeServer("", objstore.NewClient(ts.URL).ForManifest(c.Fingerprint()), false, nil)
			if err == nil || !strings.Contains(err.Error(), "figure "+tc.fig) {
				t.Errorf("err = %v, want a mismatch naming figure %s", err, tc.fig)
			}
		})
	}
}

// TestDecodePartialRejects pins the snapshot decoder's loud failures.
func TestDecodePartialRejects(t *testing.T) {
	for _, tc := range []struct{ name, data, want string }{
		{"not json", `{"results":`, "does not decode"},
		{"wrong schema", `{"results":{"schema":2},"coverage":{"jobs":1,"done":0}}`, "schema 2"},
		{"complete without results", `{"coverage":{"jobs":3,"done":3}}`, "no results"},
		{"more done than jobs", `{"results":{"schema":3},"coverage":{"jobs":1,"done":2}}`, "2 of 1 jobs"},
		{"more covered than cells", `{"results":{"schema":3},"coverage":{"jobs":2,"done":1,"figures":[{"fig":"14","cells":1,"covered":2}]}}`, "figure 14 covering 2 of 1"},
	} {
		if _, err := DecodePartial([]byte(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	p, err := DecodePartial([]byte(`{"coverage":{"jobs":3,"done":1}}`))
	if err != nil || p.Coverage.Done != 1 {
		t.Errorf("a partial snapshot without rows decodes to (%+v, %v), want coverage 1/3", p, err)
	}
}

// FuzzDecodePartial hammers the snapshot decoder both consumers share:
// it must never panic, anything it accepts must satisfy its documented
// invariants, and an accepted snapshot's encoding must be a fixed
// point of decode and re-encode.
func FuzzDecodePartial(f *testing.F) {
	complete := `{"results":{"schema":3,"figures":[{"fig":"14","labels":["RRS","Scale-SRS"],"rows":[{"Workload":"gcc","Suite":"SPEC2017","HasHot":true,"Norm":{"RRS":0.97,"Scale-SRS":0.995}}]}],"security":[{"fig":"6","rows":[{"label":"T_RH=1200","result":{"Iterations":9,"MeanTimeNS":1.5e9,"MeanEpochs":3.75,"StdErrTimeNS":2e8,"Tail":true,"Skipped":false}}]},{"fig":"t4","rows":[]}]},"coverage":{"jobs":6,"done":6,"figures":[{"fig":"14","cells":3,"covered":3,"rendered":true},{"fig":"6","security":true,"cells":1,"covered":1,"rendered":true},{"fig":"t4","security":true,"cells":0,"covered":0,"rendered":true}]}}`
	f.Add([]byte(complete))
	f.Add([]byte(complete[:len(complete)/2]))
	f.Add([]byte(strings.Replace(complete, `"schema":3`, `"schema":2`, 1)))
	f.Add([]byte(`{"results":{"schema":3,"figures":null},"coverage":{"jobs":6,"done":2,"figures":[{"fig":"14","cells":3,"covered":1},{"fig":"6","security":true,"cells":1,"covered":0}]}}`))
	f.Add([]byte(`{"coverage":{"jobs":6,"done":6}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePartial(data)
		if err != nil {
			return // rejected, as a bad snapshot must be
		}
		cov := p.Coverage
		if cov.Done < 0 || cov.Done > cov.Jobs {
			t.Fatalf("accepted coverage %d/%d jobs", cov.Done, cov.Jobs)
		}
		if cov.Complete() && p.Results == nil {
			t.Fatal("accepted a complete snapshot without results")
		}
		if p.Results != nil && p.Results.Schema != ManifestSchema {
			t.Fatalf("accepted results schema %d", p.Results.Schema)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := DecodePartial(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v\n%s", err, enc)
		}
		if enc2, _ := json.Marshal(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encode changed the snapshot:\nfirst:  %s\nsecond: %s", enc, enc2)
		}
	})
}
