package sim

import (
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

// Resumption describes how Resume built a Result.
type Resumption struct {
	How ResumeHow
	// Cycle is the baseline checkpoint the event kernel restarted from.
	// It, FirstAct and Instructions are zero unless How is
	// ResumeRestart.
	Cycle Cycles
	// FirstAct is the cycle of the access at which the tracker first
	// acted: the first cycle at which the run leaves its baseline.
	FirstAct Cycles
	// Instructions is how many budgeted instructions the kernel
	// simulated after the checkpoint, across all cores.
	Instructions int64
}

// ResumeHow says how Resume built a Result.
type ResumeHow int

const (
	// ResumeBound: Derive's bound proves the tracker never acts, and
	// the Result is Derive's.
	ResumeBound ResumeHow = iota
	// ResumeReplay: the tracker never acts on the baseline's logged
	// activations, and the Result is the baseline relabelled, as
	// Derive builds it.
	ResumeReplay
	// ResumeRestart: the event kernel restarted from the baseline's
	// last checkpoint before the tracker first acts.
	ResumeRestart
)

// Resume builds the Result that Run(w, sys, opt) returns from base, the
// Result of an in-process RunTaped(w, sys with the zero Mitigation, opt),
// simulating only what differs from the baseline. It first tries
// Derive's bound. Otherwise it replays the baseline's tape (see tape.go)
// through the cell's tracker to find the activation at which the
// tracker first acts, memoized per tracker and T_S:
//
//   - If the tracker never acts, the run is its baseline and Resume
//     returns what Derive would have, had its bound been tight.
//   - Otherwise it rebuilds the machine at the tape's last checkpoint
//     before that activation and runs the event kernel from there. The
//     LLC is rebuilt by re-issuing the logged records from the memoized
//     streams; the Row Hammer counters and the tracker by replaying the
//     window's logged activations; the mitigation is built fresh, with
//     the baseline's window ends replayed (see core.Mitigation); cores,
//     bank timing and the controller's schedule are restored as saved.
//
// The Result equals Run's but for host instrumentation: WallSeconds is
// Resume's own, SimIPS counts only the instructions simulated after the
// checkpoint, and its Resume field says how Resume built it.
//
// Resume reports false, and simulating is the only way, when base has
// no tape (it came from Run rather than RunTaped, was decoded from a
// store, or was not an unprotected closed-page event-kernel run of w
// under opt over memoized streams), or when the tracker acts before the
// first checkpoint.
func Resume(base *Result, w trace.Workload, sys config.System, opt Options) (*Result, bool) {
	if d, ok := Derive(base, sys, opt); ok {
		d.Resume = &Resumption{How: ResumeBound}
		return d, true
	}
	start := time.Now()
	t := tapeOf(base)
	if t == nil || !Derivable(sys.Mitigation) || !t.records(w, sys, opt) {
		return nil, false
	}
	first := t.firstAction(sys)
	if first < 0 {
		d := relabel(base, sys.Mitigation, start)
		d.Resume = &Resumption{How: ResumeReplay}
		return d, true
	}
	ck := -1
	for i := range t.ckpts {
		if t.ckpts[i].acts <= first {
			ck = i
		}
	}
	if ck < 0 {
		return nil, false
	}
	res, err := t.resume(ck, w, sys)
	if err != nil {
		return nil, false
	}
	res.WallSeconds = max(time.Since(start).Seconds(), 1e-9)
	res.SimIPS = float64(res.Resume.Instructions) / res.WallSeconds
	return res, true
}

// records reports whether t is the tape of Run(w, sys's baseline, opt).
func (t *tape) records(w trace.Workload, sys config.System, opt Options) bool {
	sys.Mitigation = config.Mitigation{}
	if sys != t.sys || opt.withDefaults(sys) != t.opt ||
		w.Name != t.w.Name || len(w.PerCore) != len(t.w.PerCore) {
		return false
	}
	for i, p := range w.PerCore {
		if p != t.w.PerCore[i] {
			return false
		}
	}
	return true
}

type searchKey struct {
	tracker config.TrackerKind
	ts      int
}

// search is one memoized first-action search.
type search struct {
	once sync.Once
	at   int
}

// firstAction returns the index of the logged activation at which the
// tracker of a run under sys first acts — reaches DRAM or reports a
// count of at least T_S — or -1 if it never does. Up to that
// activation the run is the baseline, so the baseline's activation log
// is the tracker's input.
func (t *tape) firstAction(sys config.System) int {
	key := searchKey{sys.Mitigation.Tracker, sys.Mitigation.TS()}
	t.mu.Lock()
	s := t.searches[key]
	if s == nil {
		s = &search{}
		t.searches[key] = s
	}
	t.mu.Unlock()
	s.once.Do(func() {
		s.at = -1
		csys := compressed(sys, t.opt)
		trk := memctrl.NewTracker(csys, csys.Geometry)
		mk := 0
		for i := range t.acts.n {
			for mk < len(t.marks) && t.marks[mk].acts == i {
				trk.Reset()
				mk++
			}
			if count, extra := trk.RecordACT(t.act(i)); extra > 0 || count >= key.ts {
				s.at = i
				return
			}
		}
	})
	return s.at
}

// resume rebuilds the machine of a run of w under sys at the tape's
// ck'th checkpoint and simulates the rest of the run.
func (t *tape) resume(ck int, w trace.Workload, sys config.System) (*Result, error) {
	cp := &t.ckpts[ck]
	opt := t.opt
	csys := compressed(sys, opt)
	starts := make([]int64, len(cp.cores))
	for i := range cp.cores {
		starts[i] = cp.cores[i].SlabStart()
	}
	m, err := build(w, csys, opt, memctrl.NewTracker(csys, csys.Geometry), starts)
	if err != nil {
		return nil, err
	}
	defer m.recycle()

	t.reissue(m, cp.issues)
	m.mem.Restore(cp.banks)
	from := 0
	if cp.marks > 0 {
		from = t.marks[cp.marks-1].acts
	}
	for i := from; i < cp.acts; i++ {
		b, row := t.act(i)
		m.mem.Bank(b).ChargeWindowACT(row)
		m.trk.RecordACT(b, row)
	}
	for _, mk := range t.marks[:cp.marks] {
		m.mit.OnWindowEnd(mk.cycle)
	}
	m.ctrl.Restore(cp.ctrl)
	var simulated int64
	for i, c := range m.cores {
		c.Restore(cp.cores[i])
		simulated += max(opt.Instructions-cp.cores[i].Retired(), 0)
	}
	m.windows = append([]BankWindow(nil), t.windows[:cp.marks*m.mem.NumBanks()]...)
	for _, bw := range m.windows {
		m.maxACT = max(m.maxACT, bw.MaxACT)
	}

	now, err := m.runEventDriven(opt.MaxCycles, cp)
	if err != nil {
		return nil, err
	}
	res := m.result(w, csys, opt, now)
	res.Resume = &Resumption{How: ResumeRestart, Cycle: cp.now, FirstAct: m.ctrl.FirstAction(), Instructions: simulated}
	return res, nil
}

// reissue replays the first n logged memory issues into m's LLC, reading
// each core's records from its memoized stream. In the baseline every
// issue that allocates reaches the LLC and none else does (no row is
// ever pinned), so this leaves the LLC as the baseline left it.
func (t *tape) reissue(m *machine, n int) {
	type reader struct {
		s   trace.BatchStream
		buf []trace.Record
		pos int
	}
	rd := make([]reader, len(m.cores))
	for i, prof := range t.w.PerCore {
		rd[i] = reader{s: trace.NewSharedGenerator(prof, t.sys.Geometry, streamSeed(t.opt, i)), buf: make([]trace.Record, 0, 32)}
	}
	for i := range n {
		r := &rd[t.issues.at(i)]
		if r.pos == len(r.buf) {
			r.buf = r.buf[:cap(r.buf)]
			r.buf = r.buf[:r.s.NextBatch(r.buf)]
			r.pos = 0
		}
		rec := &r.buf[r.pos]
		r.pos++
		if rec.NoAlloc {
			continue
		}
		loc := rec.Loc
		if !rec.HasLoc {
			loc = dram.DecodeAddr(t.sys.Geometry, rec.Addr)
		}
		m.llc.Access(rec.Addr, rec.Write, rowKeyOf(loc))
	}
}

// relabel returns base relabelled as a run under mitigation m that
// never acted: only the labels, the (zero) mitigation counters and the
// host instrumentation differ from base.
func relabel(base *Result, m config.Mitigation, start time.Time) *Result {
	d := *base
	d.Mitigation = core.NameOf(m)
	d.Tracker = m.Tracker.String()
	d.TRH = m.TRH
	d.Mit = core.Stats{}
	d.PerCoreIPC = append([]float64(nil), base.PerCoreIPC...)
	d.Windows = append([]BankWindow(nil), base.Windows...)
	d.SimIPS = 0
	d.Regimes = cpu.RegimeStats{}
	d.Kernel = DerivedKernel
	// Positive, like every simulated run's wall time.
	d.WallSeconds = max(time.Since(start).Seconds(), 1e-9)
	return &d
}
