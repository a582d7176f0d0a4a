package sim

import (
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
	"weak"

	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/trace"
)

// A tape is what an unprotected baseline run records so that Resume can
// restart a mitigated sibling run part-way through instead of from
// cycle 0. Every mitigation is inert until its tracker first acts (see
// core.Mitigation), so up to that activation the mitigated run is its
// baseline, cycle for cycle. The tape holds just enough to rebuild the
// baseline machine at a few instants:
//
//   - issues: the issuing core of every memory issue, in issue order.
//     With the memoized access streams it re-issues the LLC's access
//     sequence, which rebuilds the LLC without storing it.
//   - acts: every activation the tracker observes, packed bank<<rowBits
//     | row, and marks, the activation count and cycle of each
//     refresh-window end. Replaying them through a tracker finds where
//     it first acts, and replaying the current window rebuilds the Row
//     Hammer counters and the tracker at a checkpoint.
//   - ckpts: up to 16 evenly spaced checkpoints (at least 8 once the
//     run outlasts 8 first spacings) of the state the logs cannot
//     rebuild: cores, bank timing, the controller's bus and refresh
//     schedule, and the event kernel's loop state.
//
// A tape is immutable once its run ends, except for the memoized
// first-action searches, so any number of goroutines may resume from
// it. It lives exactly as long as its Result (tapes is keyed by a weak
// pointer) and is charged to the stream cache's byte budget; it is
// never serialized, so a Result decoded from a store has none.
type tape struct {
	w   trace.Workload
	sys config.System // the baseline system, uncompressed
	opt Options       // normalized

	issues  seqLog[uint8]
	acts    seqLog[uint32]
	rowBits uint
	marks   []mark
	ckpts   []checkpoint
	spare   []checkpoint // thinned out, kept for their buffers
	every   Cycles       // checkpoint spacing; doubles as the run grows
	dropped bool         // a stream fell back mid-run; record nothing more

	// windows is the baseline's window profile; a checkpoint's prefix
	// of it is the profile of the windows that ended before it.
	windows []BankWindow

	mu       sync.Mutex
	searches map[searchKey]*search
}

// mark is one refresh-window end: its cycle and the activations before it.
type mark struct {
	cycle Cycles
	acts  int
}

// checkpoint is the baseline machine at one event-kernel iteration
// boundary, with the log positions it corresponds to.
type checkpoint struct {
	now, windowEnd, ctrlNext Cycles
	coreNext                 []Cycles
	issues, acts, marks      int
	cores                    []cpu.Snapshot
	banks                    []dram.BankState
	ctrl                     memctrl.Snapshot
}

// seqLog is an append-only sequence kept in fixed-size chunks, so it
// grows without copying: a tape's logs reach hundreds of thousands of
// entries, and doubling slices would leave several times that in
// garbage behind every baseline run.
type seqLog[T uint8 | uint32] struct {
	chunks [][]T
	cur    []T // the last chunk's filled prefix
	n      int
}

const seqChunk = 1 << 14

func (l *seqLog[T]) add(v T) {
	if len(l.cur) == cap(l.cur) {
		c := make([]T, seqChunk)
		l.chunks = append(l.chunks, c)
		l.cur = c[:0]
	}
	l.cur = append(l.cur, v)
	l.n++
}

func (l *seqLog[T]) at(i int) T { return l.chunks[i/seqChunk][i%seqChunk] }

func (l *seqLog[T]) bytes() int64 {
	var v T
	return int64(len(l.chunks)) * seqChunk * int64(unsafe.Sizeof(v))
}

// tapeCheckpoints is the most checkpoints a tape keeps; thinning keeps
// at least half as many.
const tapeCheckpoints = 16

// tapes maps each taped Result to its tape.
var tapes sync.Map // weak.Pointer[Result] -> *tape

// newTape returns an empty tape for a Run of w under sys and normalized
// opt, or nil when Resume could not use one: the run is not an
// unprotected closed-page baseline on the event kernel over memoized
// streams, or its logs would not pack.
func newTape(w trace.Workload, sys config.System, opt Options) *tape {
	if sys.Mitigation != (config.Mitigation{}) || opt.OpenPage || opt.Kernel != KernelEvent ||
		forcePerRecordStream || len(w.PerCore) > 1<<8 {
		return nil
	}
	rowBits := uint(bits.Len(uint(sys.Geometry.RowsPerBank - 1)))
	if uint64(sys.Geometry.TotalBanks())<<rowBits > 1<<32 {
		return nil
	}
	return &tape{
		w:       trace.Workload{Name: w.Name, PerCore: append([]trace.Profile(nil), w.PerCore...)},
		sys:     sys,
		opt:     opt,
		rowBits: rowBits,
		// A core retires at most a few instructions per cycle, so
		// a run lasts about its per-core budget in cycles or longer:
		// a first spacing of an eighth of it takes 8 checkpoints in
		// the shortest runs and few doublings in the longest.
		every:    max(Cycles(opt.Instructions/8), 1<<10),
		searches: map[searchKey]*search{},
	}
}

// actLog is a taped baseline's tracker: it logs every activation and
// never acts, exactly like the skipped tracker of an untaped baseline.
type actLog struct{ t *tape }

func (l actLog) RecordACT(bankIdx int, row int32) (int, int) {
	if !l.t.dropped {
		l.t.acts.add(uint32(bankIdx)<<l.t.rowBits | uint32(row))
	}
	return 0, 0
}
func (actLog) ResetRow(int, int32) {}
func (actLog) Reset()              {}
func (actLog) Name() string        { return "activation-log" }

// act unpacks the i'th logged activation.
func (t *tape) act(i int) (bankIdx int, row dram.RowID) {
	a := t.acts.at(i)
	return int(a >> t.rowBits), dram.RowID(a & (1<<t.rowBits - 1))
}

// checkpoint records the machine at the top of an event-kernel
// iteration. When the tape holds tapeCheckpoints it instead keeps every
// second one and doubles the spacing, so the checkpoints stay evenly
// spread over the run so far; the dropped ones' buffers are reused.
// Once a stream has fallen back to a private generator the tape could
// never be attached (see attach), so it is dropped instead: a run past
// the stream cache's budget records at most one spacing's worth.
func (m *machine) checkpoint(now, windowEnd, ctrlNext Cycles, coreNext []Cycles) {
	t := m.tape
	if !m.memoized() {
		*t = tape{dropped: true}
		m.tape, m.is.tape, m.ckptAt = nil, nil, never
		return
	}
	if len(t.ckpts) == tapeCheckpoints {
		for i := 0; i < len(t.ckpts); i += 2 {
			t.spare = append(t.spare, t.ckpts[i])
		}
		for i := 1; i < len(t.ckpts); i += 2 {
			t.ckpts[i/2] = t.ckpts[i]
		}
		clear(t.ckpts[len(t.ckpts)/2:])
		t.ckpts = t.ckpts[:len(t.ckpts)/2]
		t.every *= 2
		m.ckptAt = Cycles(len(t.ckpts)+1) * t.every
		return
	}
	var cp checkpoint
	if n := len(t.spare); n > 0 {
		cp, t.spare[n-1] = t.spare[n-1], checkpoint{}
		t.spare = t.spare[:n-1]
	}
	cp.now, cp.windowEnd, cp.ctrlNext = now, windowEnd, ctrlNext
	cp.coreNext = append(cp.coreNext[:0], coreNext...)
	cp.issues, cp.acts, cp.marks = t.issues.n, t.acts.n, len(t.marks)
	cp.banks = m.mem.AppendState(cp.banks[:0])
	m.ctrl.Save(&cp.ctrl)
	if cp.cores == nil {
		cp.cores = make([]cpu.Snapshot, len(m.cores))
	}
	for i, c := range m.cores {
		c.Save(&cp.cores[i])
	}
	t.ckpts = append(t.ckpts, cp)
	m.ckptAt = Cycles(len(t.ckpts)+1) * t.every
}

// attach makes t res's tape once the run is over, if its streams stayed
// memoized and the stream cache's budget covers it. The budget charge
// is returned when res is garbage-collected.
func (t *tape) attach(res *Result, m *machine) {
	if t.dropped || !m.memoized() {
		return
	}
	t.windows = res.Windows
	t.spare = nil
	n := t.bytes()
	if !trace.ReserveCacheBytes(n) {
		return
	}
	wp := weak.Make(res)
	tapes.Store(wp, t)
	runtime.AddCleanup(res, func(wp weak.Pointer[Result]) {
		tapes.Delete(wp)
		trace.ReleaseCacheBytes(n)
	}, wp)
}

// memoized reports whether every record m's cores have read came from
// the memoized stream cache, which Resume re-reads.
func (m *machine) memoized() bool {
	for _, st := range m.streams {
		if !trace.Memoized(st) {
			return false
		}
	}
	return true
}

// tapeOf returns r's tape, or nil when r has none.
func tapeOf(r *Result) *tape {
	if v, ok := tapes.Load(weak.Make(r)); ok {
		return v.(*tape)
	}
	return nil
}

// bytes returns the memory the tape holds.
func (t *tape) bytes() int64 {
	n := t.issues.bytes() + t.acts.bytes() + int64(cap(t.marks))*int64(unsafe.Sizeof(mark{}))
	for i := range t.ckpts {
		cp := &t.ckpts[i]
		n += int64(unsafe.Sizeof(*cp)) + 8*int64(len(cp.coreNext))
		n += int64(len(cp.banks)) * int64(unsafe.Sizeof(dram.BankState{}))
		for j := range cp.cores {
			n += cp.cores[j].Bytes()
		}
	}
	return n
}
