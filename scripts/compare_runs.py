#!/usr/bin/env python3
"""Check that two builds of ChicSim++ produce the same results, byte for byte.

    python3 scripts/compare_runs.py PARENT_TREE CHANGE_TREE [--build-dir build]

Each tree is a checkout with a configured and built CMake tree in
`TREE/BUILD_DIR` (an absolute --build-dir is used as is on both sides). The
script runs each side's `examples/simulate --sites` on every
`examples/scenarios/*.cfg` of CHANGE_TREE and on a fixed set of fault-heavy
and network `--set` runs, with every export switched on (metrics CSV, timeline CSV,
Chrome trace, site metrics, spans CSV), plus `examples/postmortem` with its
event-trace CSV and one observed cell of `bench/bench_fig3_response_and_data`
(`--jobs=600 --seeds=101` with its Chrome trace, site metrics and spans CSV;
at that scale some paper shape checks fail by design, so exit code 1 is
accepted when both sides agree). Both sides read the same scenario files
and write into their own scratch directory under the same file names, so
stdout and every export can be compared byte for byte.

It prints one line per run and exits 1 when any stdout, exit code or export
differs, 0 when all match. Run it against the parent commit (for example a
`git archive` of it, built the same way) before claiming that a refactor
leaves results unchanged.
"""

import argparse
import filecmp
import glob
import os
import subprocess
import sys
import tempfile

# Fault-heavy runs: site crashes, flaky transfers, a high catalog-loss rate
# under replica_selection=Random (hundreds of CatalogInvalidated events),
# multi-input jobs with output return and DataFastSpread under every fault
# stream at once, and requester-driven DataBestClient pushes under crashes.
FAULT_RUNS = {
    "crashes": "es=JobRandom;ds=DataLeastLoaded;fault_site_crash_rate_per_hour=0.5;"
               "fault_site_downtime_s=900;seed=3",
    "transfer_failures": "es=JobLeastLoaded;ds=DataRandom;fault_transfer_fail_prob=0.3;seed=5",
    "catalog_loss_random": "es=JobRandom;ds=DataFastSpread;"
                           "fault_catalog_loss_rate_per_hour=240;replica_selection=Random;seed=9",
    "multi_input_output_spread": "es=JobDataPresent;ds=DataFastSpread;inputs_per_job=3;"
                                 "output_fraction=0.2;fault_site_crash_rate_per_hour=0.3;"
                                 "fault_site_downtime_s=600;fault_transfer_fail_prob=0.1;"
                                 "fault_catalog_loss_rate_per_hour=60;seed=11",
    "best_client_crashes": "es=JobLeastLoaded;ds=DataBestClient;"
                           "fault_site_crash_rate_per_hour=0.5;fault_site_downtime_s=900;seed=23",
}

# Network runs: MaxMin sharing under transfer failures and crashes, the
# NoContention ablation on a star, and a 240-site grid whose flow table spans
# many 64-slot words and compacts.
NETWORK_RUNS = {
    "maxmin_faults": "share_policy=MaxMin;es=JobLeastLoaded;ds=DataLeastLoaded;"
                     "fault_transfer_fail_prob=0.1;fault_site_crash_rate_per_hour=0.3;seed=17",
    "nocontention_star": "share_policy=NoContention;topology=Star;es=JobDataPresent;"
                         "ds=DataBestClient;seed=19",
    "grid_240_sites": "num_sites=240;num_regions=48;num_users=960;num_datasets=1600;"
                      "total_jobs=1920;es=JobLocal;ds=DataDoNothing;"
                      "fault_transfer_fail_prob=0.1;seed=13",
}

SIMULATE_EXPORTS = [
    ("--metrics-csv", "metrics.csv"),
    ("--timeline-csv", "timeline.csv"),
    ("--trace-out", "trace.json"),
    ("--site-metrics-out", "site_metrics.json"),
    ("--spans-csv", "spans.csv"),
]


BENCH_EXPORTS = [
    ("--trace-out", "trace.json"),
    ("--site-metrics-out", "site_metrics.json"),
    ("--spans-csv", "spans.csv"),
]

SIMULATE = "examples/simulate"
POSTMORTEM = "examples/postmortem"
FIG3 = "bench/bench_fig3_response_and_data"


def export_args(exports):
    return [f"{flag}={name}" for flag, name in exports], [name for _, name in exports]


def runs(change_tree):
    """(name, binary, args, export files, accepted exit codes) for every run."""
    exports, files = export_args(SIMULATE_EXPORTS)
    out = []
    for cfg in sorted(glob.glob(os.path.join(change_tree, "examples", "scenarios", "*.cfg"))):
        name = os.path.splitext(os.path.basename(cfg))[0]
        out.append((name, SIMULATE, [f"--config={os.path.abspath(cfg)}", "--sites"] + exports,
                    files, (0,)))
    for name, overrides in {**FAULT_RUNS, **NETWORK_RUNS}.items():
        out.append((name, SIMULATE, [f"--set={overrides}", "--sites"] + exports, files, (0,)))
    out.append(("postmortem", POSTMORTEM, ["--trace-csv=events.csv"], ["events.csv"], (0,)))
    exports, files = export_args(BENCH_EXPORTS)
    out.append(("fig3_observed_cell", FIG3, ["--jobs=600", "--seeds=101"] + exports, files,
                (0, 1)))
    return out


def run_side(binary, args, workdir):
    done = subprocess.run([binary] + args, cwd=workdir, capture_output=True, timeout=600)
    return done.returncode, done.stdout


def compare(parent_bin, change_bin, binary, args, files, ok_codes):
    """Differences between the two sides of one run, as a list of labels."""
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        rc_a, out_a = run_side(os.path.join(parent_bin, binary), args, a)
        rc_b, out_b = run_side(os.path.join(change_bin, binary), args, b)
        diffs = []
        if rc_a != rc_b:
            diffs.append(f"exit code {rc_a} vs {rc_b}")
        if rc_a not in ok_codes or rc_b not in ok_codes:
            diffs.append(f"failed run (exit {rc_a} / {rc_b})")
        if out_a != out_b:
            diffs.append("stdout")
        for f in files:
            pa, pb = os.path.join(a, f), os.path.join(b, f)
            if not (os.path.exists(pa) and os.path.exists(pb)):
                diffs.append(f"{f} missing")
            elif not filecmp.cmp(pa, pb, shallow=False):
                diffs.append(f)
        return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent source tree")
    parser.add_argument("change", help="changed source tree")
    parser.add_argument("--build-dir", default="build",
                        help="build directory inside each tree, or an absolute path")
    opts = parser.parse_args()

    bins = []
    for tree in (opts.parent, opts.change):
        bin_dir = os.path.abspath(os.path.join(tree, opts.build_dir))
        for binary in (SIMULATE, POSTMORTEM, FIG3):
            if not os.access(os.path.join(bin_dir, binary), os.X_OK):
                sys.exit(f"compare_runs: {os.path.join(bin_dir, binary)} is not built")
        bins.append(bin_dir)

    failed = 0
    for name, binary, args, files, ok_codes in runs(opts.change):
        diffs = compare(bins[0], bins[1], binary, args, files, ok_codes)
        status = "same" if not diffs else "DIFFERENT: " + ", ".join(diffs)
        print(f"{name:28s} {status}", flush=True)
        failed += bool(diffs)
    print(f"compare_runs: {failed} run(s) differ" if failed else "compare_runs: all runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
