package sim

import (
	"repro/internal/config"
	"repro/internal/trace"
)

// ResumeAt restarts a run of w under sys from the ck'th checkpoint of
// base's tape, whether or not the tracker acts before it.
func ResumeAt(base *Result, w trace.Workload, sys config.System, ck int) (*Result, error) {
	return tapeOf(base).resume(ck, w, sys)
}

// TapeCheckpoints returns how many checkpoints base's tape holds
// (-1 without a tape) and how many of them precede the activation at
// which the tracker of a run under sys first acts (-1 when it never
// acts).
func TapeCheckpoints(base *Result, sys config.System) (total, beforeAct int) {
	t := tapeOf(base)
	if t == nil {
		return -1, -1
	}
	first := t.firstAction(sys)
	if first < 0 {
		return len(t.ckpts), -1
	}
	for _, cp := range t.ckpts {
		if cp.acts <= first {
			beforeAct++
		}
	}
	return len(t.ckpts), beforeAct
}
