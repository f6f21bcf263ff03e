#!/usr/bin/env python3
"""Compare two source trees on the benchmark workloads in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        [--workload table1_data_present] --seed 5 --seconds 5 --pairs 10

Each tree is a full checkout (for example a `git archive` of the parent
commit, and the working tree). The script runs `perfbench/run.py` inside each
tree, so each side builds and measures its own sources in its own
`.bench_build/`. Without --workload it runs every workload BENCHMARK.json
declares, one after the other. Per workload, one unrecorded warm-up run per
side builds the binaries first. Then it runs N pairs, flipping which side
goes first on every pair, so a host that drifts during the comparison
penalises both sides alike.

For every end-to-end metric that BENCHMARK.json declares, it prints each
side's median and quartiles, the change's win count over the pairs, the
median change, and a verdict judged with that metric's `bound` (see
verdict()). It also reports whether both sides printed the same result
digest and whether every run reported "correct": true. The exit code is 1
when a run failed, was not correct, the digests differ, or any metric is
`worse`. Nothing under perfbench/ is modified.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

DIGEST_RE = re.compile(r"digest ([0-9a-f]+)")


def load_spec(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(tree, workload, seed, seconds):
    """One perfbench run in `tree`: (metrics dict, digest, correct)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("bench_pairs: perfbench failed in %s (exit %d)" % (tree, done.returncode))
    result = json.loads(lines[-1])
    match = DIGEST_RE.search(done.stdout)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, match.group(1) if match else None, bool(result.get("correct"))


def quartiles(values):
    """(q1, median, q3) of a sample, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, better):
    """Pairs in which the change's run beat the parent's run."""
    sign = -1.0 if better == "lower" else 1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent, change, better, bound):
    """Judge one metric from its paired samples; checked in this order:

    worse       the change's median is worse than the parent's by more
                than bound x the parent's median;
    unresolved  either side's IQR is wider than bound x its own median,
                unless every change run beats every parent run;
    gain        at least 9 in 10 pairs won, and the medians differ by more
                than the parent's IQR in the change's favour;
    no worse    anything else.
    """
    sign = -1.0 if better == "lower" else 1.0
    pq, cq = quartiles(parent), quartiles(change)
    if sign * (cq[1] - pq[1]) < -bound * abs(pq[1]):
        return "worse"
    dominates = (max(change) < min(parent)) if better == "lower" else (
        min(change) > max(parent))
    too_wide = any(q[2] - q[0] > bound * abs(q[1]) for q in (pq, cq))
    if too_wide and not dominates:
        return "unresolved"
    if 10 * wins(parent, change, better) >= 9 * len(parent) and \
            sign * (cq[1] - pq[1]) > pq[2] - pq[0]:
        return "gain"
    return "no worse"


def compare(trees, workload, metrics, args):
    """Run the pairs for one workload and print its table. Returns True when
    every run was correct, the digests match and no metric is worse."""
    for side, tree in trees.items():
        print("%s: warm-up build and run: %s (%s)" % (workload, side, tree), file=sys.stderr)
        run_once(tree, workload, args.seed, 1)

    samples = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    all_correct = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, digest, correct = run_once(trees[side], workload, args.seed, args.seconds)
            samples[side].append(values)
            digests[side].add(digest)
            all_correct = all_correct and correct
        p, c = samples["parent"][-1], samples["change"][-1]
        print("%s pair %2d (%s first): wall_s parent %.4f change %.4f"
              % (workload, i + 1, order[0], p["wall_s"], c["wall_s"]), file=sys.stderr)

    print("workload %s, seed %d, --seconds %d, %d alternating pairs"
          % (workload, args.seed, args.seconds, args.pairs))
    print("%-12s %-34s %-34s %6s %9s %5s %s" % ("metric", "parent q1/median/q3",
                                              "change q1/median/q3", "wins", "median",
                                              "bound", "verdict"))
    any_worse = False
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        p = [s[name] for s in samples["parent"]]
        c = [s[name] for s in samples["change"]]
        pq, cq = quartiles(p), quartiles(c)
        delta = (cq[1] - pq[1]) / pq[1] * 100.0 if pq[1] else float("nan")
        judged = verdict(p, c, better, bound)
        any_worse = any_worse or judged == "worse"
        print("%-12s %-34s %-34s %3d/%-2d %+8.1f%% %5.2f %s"
              % (name, "%.4g / %.4g / %.4g" % pq, "%.4g / %.4g / %.4g" % cq,
                 wins(p, c, better), args.pairs, delta, bound, judged))
    same = len(digests["parent"]) == 1 and digests["parent"] == digests["change"]
    print("digest parent %s change %s: %s" % (",".join(sorted(map(str, digests["parent"]))),
                                              ",".join(sorted(map(str, digests["change"]))),
                                              "match" if same else "DIFFER"))
    print("every run correct: %s" % ("yes" if all_correct else "NO"))
    print()
    return same and all_correct and not any_worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the baseline")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("bench_pairs: --pairs must be >= 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    spec = load_spec(trees["change"])
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        ok = compare(trees, workload, spec["end_to_end"], args) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
