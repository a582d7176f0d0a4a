package sim

import (
	"os"
	"os/exec"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/trace"
)

// TestTapeDroppedPastStreamBudget runs a taped baseline whose streams
// outgrow a 1 MiB stream cache and fall back to private generators. The
// tape must be dropped (Resume could not re-read the streams) and the
// Result must still be Run's. The stream budget is read once per
// process, so the check runs in a child process.
func TestTapeDroppedPastStreamBudget(t *testing.T) {
	if os.Getenv("SIM_TAPE_BUDGET_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTapeDroppedPastStreamBudget$", "-test.count=1")
		cmd.Env = append(os.Environ(), "SIM_TAPE_BUDGET_CHILD=1", "ROWSWAP_STREAM_CACHE_MB=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}
	sys := config.Default()
	sys.Core.Cores = 2
	w, ok := trace.WorkloadByName("gups", sys.Core.Cores)
	if !ok {
		t.Fatal("workload gups missing")
	}
	opt := Options{Instructions: 150_000}
	taped, err := RunTaped(w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewSharedGenerator(w.PerCore[0], sys.Geometry, streamSeed(opt, 0))
	buf := make([]trace.Record, 4096)
	for range 64 {
		st.NextBatch(buf)
	}
	if trace.Memoized(st) {
		t.Fatal("the streams fit the budget; the check below proves nothing")
	}
	if tapeOf(taped) != nil {
		t.Fatal("a baseline whose streams fell back kept its tape")
	}
	plain, err := Run(w, sys, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripHostInstrumentation(taped), stripHostInstrumentation(plain)) {
		t.Error("a taped run that dropped its tape differs from Run")
	}
}
