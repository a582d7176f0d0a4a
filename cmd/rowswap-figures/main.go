// Command rowswap-figures regenerates the tables and figures of the
// paper's evaluation. Each experiment prints the same rows/series the
// paper reports, computed from this repository's models and simulator.
//
// Usage:
//
//	rowswap-figures -fig 6            # one figure
//	rowswap-figures -all -quick       # everything, 12-workload subset
//	rowswap-figures -fig 14           # full 78-workload Fig. 14 (minutes)
//
// Figure identifiers: 1a, t1 (Table I), 4, 6, 7, 10, 12, 13, 14, 15,
// 16, t4 (Table IV), t5 (Table V), disc (§III-C/§VIII analyses).
//
// Performance figures are served through the persistent simulation
// cache (internal/simcache): re-generating a figure, or generating a
// new figure that shares cells with a previous one, skips every
// simulation already on disk. Within one invocation each distinct cell
// is simulated once however many figures need it. Use -no-cache to
// force re-simulation.
//
// Figures computed by a distributed sweep (cmd/rowswap-sweep) can be
// re-rendered from their merged results file without any simulation —
// an evaluation-wide results file renders every figure it covers:
//
//	rowswap-figures -manifest results.json
//
// With -follow, the command tails a running rowswap-cached daemon
// instead of a finished results file: it long-polls the daemon's
// completion feed and re-renders every already-covered figure (with
// n/m cell-coverage annotations, to stderr) as results stream in.
// When coverage completes it prints the final render to stdout —
// byte-identical to -manifest over the merged results — and exits:
//
//	rowswap-figures -follow -server http://COORD:8344
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/objstore"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/sweep"
)

func main() {
	fig := flag.String("fig", "", "figure/table to regenerate (1a,t1,4,6,7,10,12,13,14,15,16,t4,t5,disc)")
	manifest := flag.String("manifest", "", "render every figure of a rowswap-sweep merge results file instead of simulating")
	all := flag.Bool("all", false, "regenerate every figure and table")
	quick := flag.Bool("quick", false, "use the 12-workload subset for performance figures")
	workloads := flag.String("workloads", "", "comma-separated workload subset (overrides -quick)")
	instructions := flag.Int64("instructions", 0, "per-core instruction budget (default 1.5M)")
	cores := flag.Int("cores", 8, "simulated cores")
	mcIters := flag.Int("mc", 200, "Monte-Carlo iterations for Fig. 6 (0 disables)")
	workers := flag.Int("workers", 0, "simulation worker pool size for performance figures (0 = all CPUs, 1 = serial)")
	progress := flag.Bool("progress", false, "print per-workload progress for performance figures")
	cacheDir := flag.String("cache-dir", simcache.DefaultDir(), "persistent simulation-result cache directory")
	noCache := flag.Bool("no-cache", false, "disable the persistent result cache")
	follow := flag.Bool("follow", false, "tail a rowswap-cached daemon (-server): re-render covered figures as results stream in, print the final render to stdout when coverage completes")
	server := flag.String("server", "", "rowswap-cached base URL for -follow (host:port or http://HOST:PORT)")
	flag.Parse()

	if *follow {
		if *server == "" {
			fmt.Fprintln(os.Stderr, "rowswap-figures: -follow requires -server")
			os.Exit(2)
		}
		// In follow mode -manifest selects the daemon tenant (by the
		// manifest's content fingerprint); without it the daemon's
		// default manifest is followed.
		if err := runFollow(*server, *manifest); err != nil {
			fmt.Fprintf(os.Stderr, "rowswap-figures: follow %s: %v\n", *server, err)
			os.Exit(1)
		}
		return
	}

	if *manifest != "" {
		res, err := sweep.LoadResults(*manifest)
		if err == nil {
			ids := make([]string, len(res.Figures))
			for i, f := range res.Figures {
				ids[i] = f.Fig
			}
			fmt.Printf("==== %s (from sweep results) ====\n", strings.Join(ids, ", "))
			err = res.Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "manifest %s: %v\n", *manifest, err)
			os.Exit(1)
		}
		return
	}
	if *fig == "" && !*all {
		flag.Usage()
		os.Exit(2)
	}

	popt := report.PerfOptions{
		Cores:   *cores,
		Workers: *workers,
		Sim:     sim.Options{Instructions: *instructions},
	}
	if !*noCache {
		popt.CacheDir = *cacheDir
	}
	if *quick {
		popt.Workloads = report.QuickWorkloads
	}
	if *workloads != "" {
		popt.Workloads = strings.Split(*workloads, ",")
	}
	if *progress {
		popt.Progress = os.Stderr
	}

	run := func(id string) {
		fmt.Printf("==== %s ====\n", id)
		var err error
		switch id {
		case "1a":
			report.Fig1a(os.Stdout)
		case "t1":
			report.Table1(os.Stdout)
		case "4":
			_, err = report.Fig4(os.Stdout, popt)
		case "6":
			report.Fig6(os.Stdout, *mcIters)
		case "7":
			report.Fig7(os.Stdout)
		case "10":
			report.Fig10(os.Stdout)
		case "12":
			_, err = report.Fig12(os.Stdout, popt)
		case "13":
			report.Fig13(os.Stdout)
		case "14":
			_, err = report.Fig14(os.Stdout, popt)
		case "15":
			_, err = report.Fig15(os.Stdout, popt)
		case "16":
			_, err = report.Fig16(os.Stdout, popt)
		case "t4":
			report.Table4(os.Stdout)
		case "t5":
			report.Table5(os.Stdout)
		case "disc":
			report.Discussion(os.Stdout)
		case "cmp":
			_, err = report.Comparators(os.Stdout, popt, 1200)
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", id)
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	if *all {
		for _, id := range []string{"t1", "1a", "6", "7", "10", "13", "t4", "t5", "disc", "4", "12", "14", "15", "16", "cmp"} {
			run(id)
		}
		return
	}
	run(*fig)
}

// followPollWait is the long-poll window for one events request. It
// stays under the client's 60s HTTP timeout and the server's 30s
// wait cap, so an idle poll answers empty instead of erroring.
const followPollWait = 25 * time.Second

// runFollow tails the daemon's completion feed and re-renders the
// partial figures after every batch of completions. Progress renders
// go to stderr; the final, complete render goes to stdout with
// exactly the framing of -manifest mode, so piping -follow and
// re-rendering the merged results file produce identical bytes.
func runFollow(serverURL, manifestPath string) error {
	client := objstore.NewClient(serverURL)
	if manifestPath != "" {
		raw, err := os.ReadFile(manifestPath)
		if err != nil {
			return err
		}
		fp, err := objstore.ManifestFingerprint(raw)
		if err != nil {
			return err
		}
		client = client.ForManifest(fp)
	}
	cursor := 0
	// rendered tracks whether the initial (possibly all-waiting)
	// coverage frame has been shown; after that only new events
	// trigger a re-render, so idle long-polls stay silent.
	rendered := false
	for {
		evs, err := client.Events(cursor, followPollWait)
		if err != nil {
			return err
		}
		if len(evs) == 0 && rendered {
			continue // long-poll answered empty: nothing new yet
		}
		if len(evs) > 0 {
			cursor = evs[len(evs)-1].Seq
		}
		data, err := client.FiguresJSON()
		if err != nil {
			return err
		}
		p, err := sweep.DecodePartial(data)
		if err != nil {
			return err
		}
		if err := renderPartial(os.Stderr, p); err != nil {
			return err
		}
		rendered = true
		if p.Coverage.Complete() {
			res := p.Results
			ids := make([]string, len(res.Figures))
			for i, f := range res.Figures {
				ids[i] = f.Fig
			}
			fmt.Printf("==== %s (from sweep results) ====\n", strings.Join(ids, ", "))
			return res.Render(os.Stdout)
		}
	}
}

// renderPartial writes one progress frame: the per-figure coverage
// table, then every figure already renderable from the results seen
// so far.
func renderPartial(w io.Writer, p *sweep.Partial) error {
	fmt.Fprintf(w, "---- coverage %d/%d jobs ----\n", p.Coverage.Done, p.Coverage.Jobs)
	for _, fc := range p.Coverage.Figures {
		kind := "fig"
		if fc.Security {
			kind = "sec"
		}
		state := "waiting"
		switch {
		case fc.Rendered:
			state = "rendered"
		case fc.Covered > 0:
			state = "partial"
		}
		fmt.Fprintf(w, "  %s %-4s %3d/%-3d cells  %s\n", kind, fc.Fig, fc.Covered, fc.Cells, state)
	}
	if p.Results != nil && len(p.Results.Figures)+len(p.Results.Security) > 0 {
		if err := p.Results.Render(w); err != nil {
			return err
		}
	}
	return nil
}
