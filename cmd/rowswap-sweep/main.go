// Command rowswap-sweep distributes the paper's evaluation across
// worker processes (or machines) and merges the results back into its
// figures, bit-identical to single-process runs.
//
// A rowswap-cached daemon is the interchange: it serves the plan as a
// work-stealing queue, stores every pushed result, and folds each one
// into the figures as it lands, so no directory ever changes hands:
//
//	rowswap-sweep plan  -all -out manifest.json                           # coordinator
//	rowswap-cached -manifest manifest.json -store-dir store               # coordinator
//	rowswap-sweep work  -server http://COORD:8344 -name w0                # each worker
//	rowswap-sweep merge -server http://COORD:8344 -manifest manifest.json
//
// plan expands one figure (-fig 14), several (-fig 4,14), or the whole
// paper (-all: every performance AND security figure) into one
// deterministic, content-addressed job manifest. Performance figures
// contribute deduplicated simulation jobs; security figures (6, 10,
// and the closed-form 1a/7/13/t1/t4/t5) contribute seeded Monte-Carlo
// trial batches (-trials scales the per-cell trial count, -mc-seed
// roots the RNG derivation). Both job kinds flow through the same
// work-steal / merge pipeline. work registers the manifest with the
// daemon and claims jobs until the queue drains (stateless and
// idempotent: a re-run finds finished jobs in the store). merge reads
// the daemon's folded figure snapshot — Monte-Carlo rows included,
// bit-identical to a single-process run of the same seeded trials in
// any completion order — checks it for full coverage and against this
// build's plan, renders every covered figure, and writes a results
// file that rowswap-figures -manifest can re-render without
// simulating. All stages must run the same build of this binary — the
// manifest records the binary fingerprint and every stage verifies it.
//
// See README.md for a whole-evaluation two-worker walkthrough.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/attack"
	"repro/internal/objstore"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  rowswap-sweep plan  -all | -fig ID[,ID...] [-quick] [-workloads a,b] [-cores N] [-instructions N] [-window NS] -out manifest.json
  rowswap-sweep work  -server URL [-manifest manifest.json] [-name NAME] [-workers N] [-progress]
  rowswap-sweep merge -manifest manifest.json -server URL [-out results.json] [-progress]

work registers its manifest with a rowswap-cached daemon (idempotent —
the daemon keys each evaluation by manifest fingerprint) and claims
jobs from that manifest's work-stealing queue until the evaluation is
done, pushing every result to the daemon; without -manifest it works
on the daemon's manifest if the daemon serves exactly one. merge reads
the daemon's folded figure snapshot; no cache directories change
hands.
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = runPlan(os.Args[2:])
	case "work":
		err = runWork(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rowswap-sweep %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func runPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	fig := fs.String("fig", "", "figure(s) to sweep, comma-separated: performance (4, 12, 14, 15, 16, cmp) and/or security (1a, 6, 7, 10, 13, t1, t4, t5)")
	all := fs.Bool("all", false, "plan the whole paper: every performance and security figure in one deduplicated manifest")
	trials := fs.Int("trials", 1,
		fmt.Sprintf("Monte-Carlo trial multiplier: each security cell runs N x %d trials", attack.DefaultTrials))
	mcSeed := fs.Uint64("mc-seed", report.DefaultSecuritySeed, "Monte-Carlo root seed")
	mcBatch := fs.Int("mc-batch", 0,
		fmt.Sprintf("Monte-Carlo trials per batch job (0 = %d)", attack.DefaultBatch))
	quick := fs.Bool("quick", false, "use the 12-workload subset")
	workloads := fs.String("workloads", "", "comma-separated workload subset (overrides -quick; default all 78)")
	cores := fs.Int("cores", 8, "simulated cores per workload")
	instructions := fs.Int64("instructions", 0, "per-core instruction budget (default 1.5M)")
	window := fs.Float64("window", 0, "refresh-window length in ns (default 400000)")
	out := fs.String("out", "manifest.json", "manifest output path")
	fs.Parse(args)

	var figIDs []string
	switch {
	case *all && *fig != "":
		return fmt.Errorf("-all and -fig are mutually exclusive")
	case *all:
		figIDs = append(report.PerfFigureIDs(), report.SecurityFigureIDs()...)
	case *fig != "":
		figIDs = strings.Split(*fig, ",")
	default:
		return fmt.Errorf("missing -fig or -all")
	}
	opt := report.PerfOptions{
		Cores: *cores,
		Sim:   sim.Options{Instructions: *instructions, WindowNS: *window},
	}
	if *quick {
		opt.Workloads = report.QuickWorkloads
	}
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}
	po := sweep.PlanOptions{
		MCTrials: *trials * attack.DefaultTrials,
		MCBatch:  *mcBatch,
		MCSeed:   *mcSeed,
	}
	m, err := sweep.PlanEvaluation(figIDs, opt, po)
	if err != nil {
		return err
	}
	if err := m.Save(*out); err != nil {
		return err
	}
	perFigure := 0
	for _, f := range m.Figures {
		perFigure += len(f.Cells)
	}
	nSim := 0
	for _, j := range m.Jobs {
		if j.Kind == "" || j.Kind == sweep.JobKindSim {
			nSim++
		}
	}
	summary := fmt.Sprintf("planned %d figure(s) (%s): %d simulation jobs (%d figure cells before dedupe)",
		len(m.Figures), strings.Join(figIDs, ","), nSim, perFigure)
	if m.Security != nil {
		summary += fmt.Sprintf(" + %d Monte-Carlo batch jobs (%d security figure(s), %d cells x %d trials, seed %#x)",
			len(m.Jobs)-nSim, len(m.Security.Figures), len(m.Security.Cells), m.Security.Trials, m.Security.Seed)
	}
	fmt.Printf("%s -> %s\n", summary, *out)
	return nil
}

// defaultWorkerName identifies this process in the daemon's per-worker
// stats and lease bookkeeping when -name is not given.
func defaultWorkerName() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func runWork(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	server := fs.String("server", "", "rowswap-cached URL to claim jobs from and push results to")
	manifest := fs.String("manifest", "", "manifest written by plan (default: the server's, if it serves exactly one)")
	name := fs.String("name", defaultWorkerName(), "worker name reported to the coordinator")
	workers := fs.Int("workers", 0, "simulation goroutines claiming independently (0 = all CPUs)")
	progress := fs.Bool("progress", false, "print per-job progress")
	fs.Parse(args)

	if *server == "" {
		return fmt.Errorf("missing -server (start one with: rowswap-cached -manifest manifest.json)")
	}
	client := objstore.NewClient(*server)
	var raw []byte
	var err error
	if *manifest != "" {
		raw, err = os.ReadFile(*manifest)
	} else if client, err = client.SoleManifest(); err == nil {
		raw, err = client.ManifestJSON()
	}
	if err != nil {
		return fmt.Errorf("%w (pass -manifest to choose or register one)", err)
	}
	var m sweep.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	// Registration is idempotent and names the tenant: the daemon keys
	// each evaluation by the manifest's content fingerprint, so this
	// worker claims only from its own sweep's queue even when the daemon
	// serves several manifests at once.
	reg, err := client.Register(raw)
	if err != nil {
		return fmt.Errorf("registering manifest with %s: %w", client.Base(), err)
	}
	client = client.ForManifest(reg.Fingerprint)
	var prog *os.File
	if *progress {
		prog = os.Stderr
	}
	stats, err := m.RunWork(client, *name, *workers, progIfSet(prog))
	if err != nil {
		return err
	}
	fmt.Printf("worker %s: claimed %d jobs (%d simulated, %d derived, %d resumed, %d served from store) -> %s (manifest %.12s…)\n",
		*name, stats.Claimed, stats.Simulated, stats.Derived, stats.Resumed, stats.Hits, client.Base(), reg.Fingerprint)
	return nil
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	manifest := fs.String("manifest", "", "manifest written by plan")
	server := fs.String("server", "", "rowswap-cached URL whose folded figure snapshot is the result set")
	out := fs.String("out", "", "results file for rowswap-figures -manifest (optional)")
	progress := fs.Bool("progress", false, "print merge progress")
	fs.Parse(args)

	if *manifest == "" {
		return fmt.Errorf("missing -manifest")
	}
	if *server == "" {
		return fmt.Errorf("missing -server (the rowswap-cached daemon the workers pushed to)")
	}
	m, raw, err := sweep.LoadManifestRaw(*manifest)
	if err != nil {
		return err
	}
	// The snapshot lives in the manifest's namespace on the daemon,
	// keyed by the same fingerprint registration derives.
	fp, err := objstore.ManifestFingerprint(raw)
	if err != nil {
		return err
	}
	var prog *os.File
	if *progress {
		prog = os.Stderr
	}
	res, err := m.MergeServer("", objstore.NewClient(*server).ForManifest(fp), false, progIfSet(prog))
	if err != nil {
		return err
	}
	if *out != "" {
		if err := res.Save(*out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "merged rows for %d figure(s) written to %s\n", len(res.Figures), *out)
	}
	return res.Render(os.Stdout)
}

// progIfSet converts a possibly-nil *os.File into the io.Writer the
// sweep API expects (a typed-nil *os.File inside a non-nil interface
// would defeat its progress == nil checks).
func progIfSet(f *os.File) io.Writer {
	if f == nil {
		return nil
	}
	return f
}
