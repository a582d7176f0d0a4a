package sim_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stripResumed strips what may differ between a result Resume built and
// a simulation's: a derived result's host fields (see stripHost), or a
// resumed one's wall time and SimIPS; and either's Resumption record.
// A resumed run keeps its Kernel and Regimes: the kernel continues from
// the checkpoint with exactly the Ticks the uninterrupted run makes.
func stripResumed(r *sim.Result) *sim.Result { return strip(r, r) }

// strip strips r as stripResumed strips got.
func strip(r, got *sim.Result) *sim.Result {
	c := *r
	if got.Derived() {
		c = *stripHost(r)
	}
	c.WallSeconds, c.SimIPS, c.Resume = 0, 0, nil
	return &c
}

// resumed reports whether Resume restarted r from a checkpoint.
func resumed(r *sim.Result) bool { return r.Resume != nil && r.Resume.How == sim.ResumeRestart }

// resumeMitigations are the mitigations TestResumeMatchesRun restarts.
func resumeMitigations(trh int) []config.Mitigation {
	noUnswap := config.DefaultRRS(trh)
	noUnswap.ImmediateUnswap = false
	return []config.Mitigation{
		config.DefaultRRS(trh),
		noUnswap,
		config.DefaultSRS(trh),
		config.DefaultScaleSRS(trh),
		config.DefaultAQUA(trh),
		config.DefaultBlockHammer(trh),
	}
}

// TestResumeMatchesRun is the differential oracle for Resume. For every
// quick workload, mitigation, tracker and T_RH whose cell Derive
// refuses, restarting from each baseline checkpoint at or before the
// tracker's first action must give exactly sim.Run's result (see
// stripResumed), and so must Resume itself. Restoring a baseline from
// any of its checkpoints must give the baseline back. The second pass
// runs lbm_17 long enough to cross two window ends, so its cells
// restart past the first window and exercise the window-profile prefix
// and the replayed window ends.
func TestResumeMatchesRun(t *testing.T) {
	t.Run("quick", func(t *testing.T) {
		checkResumeMatchesRun(t, report.QuickWorkloads, 8, sim.Options{Instructions: 20_000})
	})
	t.Run("multi-window", func(t *testing.T) {
		if checkResumeMatchesRun(t, []string{"lbm_17"}, 2, sim.Options{Instructions: 150_000, WindowNS: 150_000}) == 0 {
			t.Error("no cell resumed past the first window")
		}
	})
}

// checkResumeMatchesRun runs the oracle over workloads and returns how
// many cells resumed past the first window end.
func checkResumeMatchesRun(t *testing.T, workloads []string, cores int, opt sim.Options) (laterWindow int) {
	sys := config.Default()
	sys.Core.Cores = cores
	window := sim.Cycles(opt.Normalized(sys).WindowNS * sys.Core.ClockGHz)
	var restored, nResumed, acted int
	for _, name := range workloads {
		w, ok := trace.WorkloadByName(name, sys.Core.Cores)
		if !ok {
			t.Fatalf("workload %q missing", name)
		}
		base, err := sim.RunTaped(w, sys, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoints start an eighth of the per-core budget apart
		// (at least 1024 cycles), so a run of 8 spacings holds 8.
		first := max(sim.Cycles(opt.Instructions/8), 1<<10)
		total, _ := sim.TapeCheckpoints(base, sys)
		if total < min(8, int(base.Cycles/first)) || total > 16 {
			t.Fatalf("%s: baseline tape holds %d checkpoints over %d cycles", name, total, base.Cycles)
		}
		for ck := 0; ck < total; ck++ {
			r, err := sim.ResumeAt(base, w, sys, ck)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripResumed(r), strip(base, r)) {
				t.Fatalf("%s: baseline restored from checkpoint %d differs from its run", name, ck)
			}
		}
		for _, tk := range []config.TrackerKind{config.TrackerMisraGries, config.TrackerHydra} {
			for _, trh := range []int{512, 1200, 2400} {
				for _, m := range resumeMitigations(trh) {
					m.Tracker = tk
					cell := withMitigation(sys, m)
					if _, ok := sim.Derive(base, cell, opt); ok {
						continue // TestDeriveMatchesRun's ground
					}
					label := fmt.Sprintf("%s %s/%s T_RH=%d", name, core.NameOf(m), tk, trh)
					want, err := sim.Run(w, cell, opt)
					if err != nil {
						t.Fatal(err)
					}
					_, before := sim.TapeCheckpoints(base, cell)
					if before >= 0 {
						acted++
					}
					for ck := 0; ck < before; ck++ {
						r, err := sim.ResumeAt(base, w, cell, ck)
						if err != nil {
							t.Fatal(err)
						}
						restored++
						if !reflect.DeepEqual(stripResumed(r), strip(want, r)) {
							t.Fatalf("%s: restored from checkpoint %d differs from the simulation:\nresumed: %+v\nrun:     %+v", label, ck, r, want)
						}
					}
					r, ok := sim.Resume(base, w, cell, opt)
					if !ok {
						continue
					}
					if !reflect.DeepEqual(stripResumed(r), strip(want, r)) {
						t.Fatalf("%s: Resume differs from the simulation:\nresumed: %+v\nrun:     %+v", label, r, want)
					}
					// Derive refused the cell, so Resume must say how
					// it built it: relabelled, or restarted.
					if r.Resume == nil || r.Resume.How == sim.ResumeBound || resumed(r) == r.Derived() {
						t.Fatalf("%s: Resume says %+v of a result of kernel %q", label, r.Resume, r.Kernel)
					}
					if !resumed(r) {
						continue
					}
					nResumed++
					if r.Resume.FirstAct < r.Resume.Cycle {
						t.Errorf("%s: tracker first acts at cycle %d, before the checkpoint at %d", label, r.Resume.FirstAct, r.Resume.Cycle)
					}
					if r.Resume.Cycle >= window {
						laterWindow++
					}
				}
			}
		}
	}
	t.Logf("%d trackers act, %d checkpoint restores, %d cells resumed (%d past the first window)", acted, restored, nResumed, laterWindow)
	if nResumed == 0 {
		t.Fatal("Resume restarted no cell")
	}
	return laterWindow
}

// TestResumeConcurrent resumes one baseline's siblings from several
// goroutines at once: they share the tape and its memoized searches,
// which CI's race detector job checks.
func TestResumeConcurrent(t *testing.T) {
	sys, w, opt, base := resumeFixture(t)
	var cells []config.System
	var want []*sim.Result
	for _, trh := range []int{512, 1200} {
		for _, m := range resumeMitigations(trh) {
			cell := withMitigation(sys, m)
			if _, ok := sim.Derive(base, cell, opt); ok {
				continue
			}
			r, err := sim.Run(w, cell, opt)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell)
			want = append(want, r)
		}
	}
	var nResumed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, cell := range cells {
				r, ok := sim.Resume(base, w, cell, opt)
				if !ok {
					t.Errorf("%s: refused", core.NameOf(cell.Mitigation))
					continue
				}
				if resumed(r) {
					nResumed.Add(1)
				}
				if !reflect.DeepEqual(stripResumed(r), strip(want[i], r)) {
					t.Errorf("%s: concurrent Resume differs from the simulation", core.NameOf(cell.Mitigation))
				}
			}
		}()
	}
	wg.Wait()
	if nResumed.Load() == 0 {
		t.Fatal("no cell was resumed; the tape was never shared")
	}
}

// TestResumeRefuses covers baselines Resume must turn down: one decoded
// from JSON has no tape, nor has a nil one or one sim.Run simulated,
// and a tape serves only its own workload and options.
func TestResumeRefuses(t *testing.T) {
	sys, w, opt, base := resumeFixture(t)
	cell := withMitigation(sys, config.DefaultRRS(512))
	if r, ok := sim.Resume(base, w, cell, opt); !ok || !resumed(r) {
		t.Fatal("Resume does not restart the cell from its own baseline; the refusals below prove nothing")
	}
	untaped, err := sim.Run(w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.Resume(untaped, w, cell, opt); ok {
		t.Error("Resume accepted a baseline sim.Run simulated without a tape")
	}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	var decoded sim.Result
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := sim.Resume(&decoded, w, cell, opt); ok {
		t.Error("Resume accepted a JSON-decoded baseline")
	}
	if _, ok := sim.Resume(nil, w, cell, opt); ok {
		t.Error("Resume accepted a nil baseline")
	}
	other, _ := trace.WorkloadByName("hmmer", sys.Core.Cores)
	if _, ok := sim.Resume(base, other, cell, opt); ok {
		t.Error("Resume accepted another workload's baseline")
	}
	if _, ok := sim.Resume(base, w, cell, sim.Options{Instructions: 30_000}); ok {
		t.Error("Resume accepted a baseline of other options")
	}
}

// resumeFixture is gcc's baseline on 8 cores at a small budget: at
// T_RH 512 its trackers act part-way through the run.
func resumeFixture(t *testing.T) (config.System, trace.Workload, sim.Options, *sim.Result) {
	t.Helper()
	sys := config.Default()
	opt := sim.Options{Instructions: 20_000}
	w, ok := trace.WorkloadByName("gcc", sys.Core.Cores)
	if !ok {
		t.Fatal("workload gcc missing")
	}
	base, err := sim.RunTaped(w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sys, w, opt, base
}
