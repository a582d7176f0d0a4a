#!/bin/sh
# Benchmark-file gate, enforced by CI (see .github/workflows/ci.yml).
#
# Two file shapes are understood:
#
#   BENCH_kernel.json — flat, with approx_sim_ips. The gate compares a
#   freshly measured file against the committed baseline and fails when
#   approx_sim_ips regressed by more than the tolerance (default 15%,
#   generous because CI runners are shared and noisy — the gate catches
#   algorithmic regressions, not jitter). When both files carry the
#   serial-event figure (approx_sim_ips_serial) it is held to the same
#   tolerance, so a contention regression that the parallel figure
#   happens to absorb still fails. The fresh file must also be
#   structurally complete: a hot_path section with all four component
#   measurements (so the aggregate number stays attributable), and a
#   regime_breakdown with stepped_cycles == 0 (nothing silently fell
#   back to per-cycle stepping). When the baseline records
#   stream_cache_bytes (what the memoized trace streams of one quick
#   matrix take, a host-independent count), the fresh file must record
#   it too, no larger.
#
#   BENCH_sweep.json — sectioned ({evaluation, work_stealing, service,
#   ...}), each section written by one e2e test. Sections hold
#   machine-dependent wall times, so there is no regression threshold;
#   the gate instead validates structure: the file is a JSON object of
#   objects, every known section carries its required keys, and unknown
#   sections are tolerated (a future e2e may add one). Two checks are
#   host-independent and so do hold a threshold: the evaluation
#   section must deduplicate (fewer jobs than the per-figure plans
#   summed), and the service section's store must keep fewer files
#   than entries.
#
# Usage: ./scripts/check_bench.sh BASELINE.json FRESH.json [tolerance]
set -u

baseline=${1:?usage: check_bench.sh BASELINE.json FRESH.json [tolerance]}
fresh=${2:?usage: check_bench.sh BASELINE.json FRESH.json [tolerance]}
tolerance=${3:-0.15}

python3 - "$baseline" "$fresh" "$tolerance" <<'EOF'
import json, sys

baseline_path, fresh_path, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])
base_doc = json.load(open(baseline_path))
new_doc = json.load(open(fresh_path))

if "approx_sim_ips" in base_doc:
    # Kernel-throughput regression gate plus structural completeness.
    failed = False

    def gate(name, base, new):
        global failed
        floor = base * (1 - tolerance)
        verdict = "OK" if new >= floor else "REGRESSION"
        print(f"bench gate: {name} baseline {base:,.0f} sim-IPS, fresh "
              f"{new:,.0f} sim-IPS, floor {floor:,.0f} "
              f"({tolerance:.0%} tolerance): {verdict}")
        failed |= new < floor

    gate("parallel", base_doc["approx_sim_ips"], new_doc["approx_sim_ips"])
    if "approx_sim_ips_serial" in base_doc:
        # Serial figure is gated once the committed baseline records it;
        # a fresh file missing it means the SerialEvent bench didn't run.
        gate("serial", base_doc["approx_sim_ips_serial"],
             new_doc.get("approx_sim_ips_serial", 0.0))

    HOT_PATH_KEYS = {"stream_batch_records_per_sec", "stream_next_records_per_sec",
                     "record_act_ns_per_op", "llc_access_ns_per_op"}
    hot = new_doc.get("hot_path")
    if not isinstance(hot, dict) or HOT_PATH_KEYS - set(hot):
        missing = sorted(HOT_PATH_KEYS - set(hot or {}))
        print(f"bench gate: hot_path section missing or lacks keys {missing}",
              file=sys.stderr)
        failed = True
    else:
        print(f"bench gate: hot_path OK ({len(hot)} component measurements)")

    stepped = new_doc.get("regime_breakdown", {}).get("stepped_cycles")
    if stepped != 0:
        print(f"bench gate: regime_breakdown.stepped_cycles = {stepped!r}, "
              f"want 0 (event kernel fell back to per-cycle stepping)",
              file=sys.stderr)
        failed = True
    else:
        print("bench gate: stepped_cycles == 0 (no per-cycle fallback)")

    if "stream_cache_bytes" in base_doc:
        base_bytes = base_doc["stream_cache_bytes"]
        new_bytes = new_doc.get("stream_cache_bytes")
        if new_bytes is None or new_bytes > base_bytes:
            print(f"bench gate: stream_cache_bytes {new_bytes!r} > baseline "
                  f"{base_bytes:,} (the quick matrix's memoized streams grew)",
                  file=sys.stderr)
            failed = True
        else:
            print(f"bench gate: stream_cache_bytes {new_bytes:,} <= baseline "
                  f"{base_bytes:,}: OK")

    sys.exit(1 if failed else 0)

# Sectioned sweep-bench structure gate. Wall times are machine noise;
# what must hold is that each e2e wrote a complete section.
REQUIRED = {
    "evaluation": {"benchmark", "jobs_per_figure_sum", "jobs_deduplicated",
                   "dedupe_savings_frac", "merge_wall_seconds"},
    "work_stealing": {"benchmark", "jobs", "jobs_claimed_per_worker",
                      "work_stealing_wall_seconds"},
    "service": {"benchmark", "jobs", "jobs_recovered_on_restart",
                "restart_recovery_wall_seconds", "cold_rerun_wall_seconds",
                "heartbeats_total", "heartbeats_per_worker",
                "store_entries", "store_files"},
    "monte_carlo": {"benchmark", "jobs", "monte_carlo_batch_jobs",
                    "trials_total", "trials_per_second",
                    "distributed_wall_seconds", "single_process_wall_seconds"},
    "streaming": {"benchmark", "jobs", "coverage_frames",
                  "time_to_first_figure_seconds",
                  "time_to_full_merge_seconds"},
}
problems = []
if not isinstance(new_doc, dict) or not new_doc:
    problems.append("file is not a non-empty JSON object of sections")
else:
    for name, section in sorted(new_doc.items()):
        if not isinstance(section, dict):
            problems.append(f"section {name!r} is not an object")
            continue
        missing = REQUIRED.get(name, set()) - set(section)
        if missing:
            problems.append(f"section {name!r} lacks keys {sorted(missing)}")
        elif (name == "evaluation" and
              section["jobs_deduplicated"] >= section["jobs_per_figure_sum"]):
            # Host-independent: one evaluation-wide plan shares every
            # baseline and recurring config across figures.
            problems.append(f"section 'evaluation': jobs_deduplicated "
                            f"{section['jobs_deduplicated']} >= jobs_per_figure_sum "
                            f"{section['jobs_per_figure_sum']} (nothing deduplicated)")
        elif name == "service" and section["store_files"] >= section["store_entries"]:
            # Host-independent: the store appends entries to a segment
            # per writer, so one file per entry means that form is back.
            problems.append(f"section 'service': store_files {section['store_files']} >= "
                            f"store_entries {section['store_entries']} (one file per entry)")
        else:
            tag = "known" if name in REQUIRED else "tolerated (unknown)"
            print(f"bench gate: section {name!r} OK ({tag}, {len(section)} keys)")
if problems:
    for p in problems:
        print(f"bench gate: {p}", file=sys.stderr)
    sys.exit(1)
print(f"bench gate: {len(new_doc)} section(s) structurally valid")
EOF
