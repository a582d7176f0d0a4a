// Command rowswap-sim runs one workload through the whole-system
// performance simulator under a chosen Row Hammer mitigation and prints
// IPC, normalized performance, and mitigation activity.
//
// Results are served from the persistent simulation cache
// (internal/simcache) when available, so repeating an invocation — or
// re-running a mitigated configuration whose baseline was already
// simulated — costs only a file read. A mitigated run whose baseline
// proves its tracker stays inert (no row can reach the swap threshold,
// or under Hydra no row group can reach the group threshold) is derived
// from the baseline instead of simulated (sim.Derive), and the output
// says so. Otherwise, when the baseline was simulated in this process
// (-workers 1 with no cached baseline), the mitigated run restarts from
// the baseline's last checkpoint before its tracker first acts
// (sim.Resume), and the output names the checkpoint's cycle.
// Use -no-cache to force re-simulation or -cache-dir to relocate the
// cache.
//
// Examples:
//
//	rowswap-sim -workload gcc -mitigation rrs -trh 1200
//	rowswap-sim -workload gups -mitigation scale-srs -trh 1200 -tracker hydra
//	rowswap-sim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/config"
	"repro/internal/memctrl"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

func main() {
	workload := flag.String("workload", "gcc", "workload name (see -list)")
	list := flag.Bool("list", false, "list the 78 workloads and exit")
	mitigation := flag.String("mitigation", "scale-srs",
		"baseline, rrs, rrs-nounswap, srs, scale-srs, blockhammer, or aqua")
	trh := flag.Int("trh", 1200, "Row Hammer threshold")
	trackerName := flag.String("tracker", "misra-gries", "misra-gries or hydra")
	cores := flag.Int("cores", 8, "simulated cores")
	instructions := flag.Int64("instructions", 0, "per-core instruction budget (default 1.5M)")
	seed := flag.Uint64("seed", 0, "simulation seed (0 = default)")
	workers := flag.Int("workers", 0, "baseline/mitigated run concurrency (1 = serial; any other value = concurrent)")
	cacheDir := flag.String("cache-dir", simcache.DefaultDir(), "persistent simulation-result cache directory")
	noCache := flag.Bool("no-cache", false, "disable the persistent result cache")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	// Profiling a cached run profiles a file read; force re-simulation
	// so the profile reflects the kernel (scripts/profile.sh relies on
	// this). The bench harness needs no equivalent flags: `go test`
	// already provides -cpuprofile/-memprofile.
	if *cpuProfile != "" || *memProfile != "" {
		*noCache = true
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var cache *simcache.Cache
	if !*noCache && *cacheDir != "" {
		var err error
		if cache, err = simcache.Open(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "warning: cache disabled: %v\n", err)
			cache = nil
		}
	}

	if *list {
		for _, w := range trace.Workloads(1) {
			hot := ""
			if w.HasHotRows() {
				hot = " [hot rows]"
			}
			fmt.Printf("%-16s %s%s\n", w.Name, w.Suite, hot)
		}
		return
	}

	w, ok := trace.WorkloadByName(*workload, *cores)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}

	sys := config.Default()
	sys.Core.Cores = *cores
	switch *mitigation {
	case "baseline":
		sys.Mitigation = config.Mitigation{}
	case "rrs":
		sys.Mitigation = config.DefaultRRS(*trh)
	case "rrs-nounswap":
		sys.Mitigation = config.DefaultRRS(*trh)
		sys.Mitigation.ImmediateUnswap = false
	case "srs":
		sys.Mitigation = config.DefaultSRS(*trh)
	case "scale-srs":
		sys.Mitigation = config.DefaultScaleSRS(*trh)
	case "blockhammer":
		sys.Mitigation = config.DefaultBlockHammer(*trh)
	case "aqua":
		sys.Mitigation = config.DefaultAQUA(*trh)
	default:
		fmt.Fprintf(os.Stderr, "unknown mitigation %q\n", *mitigation)
		os.Exit(2)
	}
	switch *trackerName {
	case "misra-gries":
		sys.Mitigation.Tracker = config.TrackerMisraGries
	case "hydra":
		sys.Mitigation.Tracker = config.TrackerHydra
	default:
		fmt.Fprintf(os.Stderr, "unknown tracker %q\n", *trackerName)
		os.Exit(2)
	}

	opt := sim.Options{Instructions: *instructions, Seed: *seed}
	if *mitigation == "baseline" {
		res, hit, err := simcache.RunCached(cache, w, sys, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if hit {
			fmt.Println("(result served from cache)")
		}
		printResult(res, 0)
		return
	}
	norm, rb, rm, err := simcache.NormalizedPerf(cache, w, sys, opt, *workers != 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("baseline IPC: %.4f\n", rb.MeanIPC)
	if rs := rm.Resume; rs != nil {
		base := sys
		base.Mitigation = config.Mitigation{}
		key := simcache.RunKey(w, base, opt)
		switch rs.How {
		case sim.ResumeRestart:
			fmt.Printf("(mitigated result resumed from baseline run %.12s at cycle %d; tracker first acts at cycle %d)\n",
				key, rs.Cycle, rs.FirstAct)
		case sim.ResumeReplay:
			fmt.Printf("(mitigated result derived from baseline run %.12s: its tracker never acts on the baseline's activations)\n", key)
		default:
			bound := fmt.Sprintf("no row can reach T_S = %d", sys.Mitigation.TS())
			if sys.Mitigation.Tracker == config.TrackerHydra {
				bound = fmt.Sprintf("no %d-row group can reach Hydra's group threshold %d",
					memctrl.HydraGroupRows, memctrl.HydraGroupThreshold(sys))
			}
			fmt.Printf("(mitigated result derived from baseline run %.12s: %s)\n", key, bound)
		}
	}
	printResult(rm, norm)
}

func printResult(r *sim.Result, norm float64) {
	fmt.Printf("workload=%s mitigation=%s tracker=%s TRH=%d\n",
		r.Workload, r.Mitigation, r.Tracker, r.TRH)
	fmt.Printf("mean IPC            : %.4f\n", r.MeanIPC)
	if norm > 0 {
		fmt.Printf("normalized perf     : %.4f (%.2f%% slowdown)\n", norm, (1-norm)*100)
	}
	fmt.Printf("cycles              : %d\n", r.Cycles)
	fmt.Printf("LLC hits/misses     : %d / %d (pinned hits %d)\n",
		r.LLC.Hits, r.LLC.Misses, r.LLC.PinnedHits)
	fmt.Printf("DRAM reads/writes   : %d / %d (refreshes %d)\n",
		r.Ctrl.Reads, r.Ctrl.Writes, r.Ctrl.Refreshes)
	fmt.Printf("T_S crossings       : %d\n", r.Ctrl.Mitigations)
	fmt.Printf("swaps/unswaps       : %d / %d\n", r.Mit.Swaps, r.Mit.Unswaps)
	fmt.Printf("place-backs         : %d (window-end spike ops %d)\n",
		r.Mit.PlaceBacks, r.Mit.EpochSpikeOps)
	fmt.Printf("rows pinned         : %d (counter accesses %d)\n",
		r.Mit.Pins, r.Mit.CounterAccesses)
	fmt.Printf("tracker DRAM ops    : %d\n", r.Ctrl.TrackerMemOps)
	fmt.Printf("hottest slot ACTs   : %d per window\n", r.MaxWindowACT)
}
