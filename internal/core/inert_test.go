package core

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/stats"
)

// TestMitigationsInertBeforeFirstAggressor pins the contract sim.Derive
// and sim.Resume rely on (see the Mitigation doc): until its first
// OnAggressor, every mitigation maps rows to themselves, schedules and
// performs no work, and touches no bank — so a run whose tracker never
// crosses T_S is its baseline, cycle for cycle. And its state depends
// only on the OnWindowEnd calls it saw: a fresh mitigation that sees
// just those equals one that was also ticked throughout, which is how
// sim.Resume rebuilds a mitigation at a baseline checkpoint.
func TestMitigationsInertBeforeFirstAggressor(t *testing.T) {
	noUnswap := config.DefaultRRS(1200)
	noUnswap.ImmediateUnswap = false
	for _, m := range []config.Mitigation{
		config.DefaultRRS(1200),
		noUnswap,
		config.DefaultSRS(1200),
		config.DefaultScaleSRS(1200),
		config.DefaultBlockHammer(1200),
		config.DefaultAQUA(1200),
	} {
		t.Run(NameOf(m), func(t *testing.T) {
			sys, mem := testSystem(config.MitigationNone, 0)
			sys.Mitigation = m
			mit, err := New(mem, sys, stats.NewRNG(3))
			if err != nil {
				t.Fatal(err)
			}
			if mit.Name() != NameOf(m) {
				t.Errorf("Name() = %q, NameOf = %q", mit.Name(), NameOf(m))
			}
			window := mem.Timing().RefreshWindow
			rows := sys.Geometry.RowsPerBank
			var now Cycles
			var windowEnds []Cycles
			for w := 0; w < 4; w++ {
				end := now + window
				for ; now < end; now += 977 {
					if next := mit.NextWork(now); next != NoWork {
						t.Fatalf("window %d cycle %d: NextWork = %d, want NoWork", w, now, next)
					}
					mit.Tick(now)
					for b := 0; b < mem.NumBanks(); b++ {
						row := dram.RowID((int(now) + 31*b) % rows)
						if got := mit.Resolve(b, row); got != row {
							t.Fatalf("window %d: Resolve(%d, %d) = %d, want the identity", w, b, row, got)
						}
					}
				}
				mit.OnWindowEnd(now)
				windowEnds = append(windowEnds, now)
				if next := mit.NextWork(now); next != NoWork {
					t.Fatalf("after window %d: NextWork = %d, want NoWork", w, next)
				}
			}
			if s := mit.Stats(); s != (Stats{}) {
				t.Errorf("Stats = %+v, want zero", s)
			}
			replayed, err := New(mem, sys, stats.NewRNG(3))
			if err != nil {
				t.Fatal(err)
			}
			for _, end := range windowEnds {
				replayed.OnWindowEnd(end)
			}
			if !reflect.DeepEqual(replayed, mit) {
				t.Error("a fresh mitigation replaying only the window ends differs from the ticked one")
			}
			if n := mem.TotalACTs(); n != 0 {
				t.Errorf("%d bank activations, want none", n)
			}
			for b := 0; b < mem.NumBanks(); b++ {
				bank := mem.Bank(b)
				if bu := bank.BusyUntil(); bu != 0 {
					t.Errorf("bank %d busy until %d, want never blocked", b, bu)
				}
				if !bank.IsIdentity() {
					t.Errorf("bank %d holds displaced rows", b)
				}
			}
		})
	}
}
