#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload table1_data_present --seed 5 --seconds 5 --pairs 10

Each tree is a full checkout (for example a `git worktree` or `git archive`
of the parent commit, and the working tree). The script runs
`perfbench/run.py` inside each tree, so each side builds and measures its
own sources in its own `.bench_build/`. One unrecorded warm-up run per side
builds the binaries first. Then it runs N pairs, flipping which side goes
first on every pair, so a host that drifts during the comparison penalises
both sides alike.

It prints, for every end-to-end metric that BENCHMARK.json declares, each
side's median and quartiles, the change's win count over the pairs, and
whether the change's median gain exceeds the parent's interquartile range.
It also reports whether both sides printed the same result digest and
whether every run reported "correct": true. The exit code is 1 when a run
failed, was not correct, or the digests differ. Nothing under perfbench/ is
modified.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

DIGEST_RE = re.compile(r"digest ([0-9a-f]+)")


def end_to_end_metrics(tree):
    """The end-to-end metrics BENCHMARK.json declares: (name, better)."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the baseline")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 1:
        sys.exit("bench_pairs: --pairs must be >= 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    metrics = end_to_end_metrics(trees["change"])

    for side, tree in trees.items():
        print("warm-up build and run: %s (%s)" % (side, tree), file=sys.stderr)
        run_once(tree, args.workload, args.seed, 1)

    samples = {"parent": [], "change": []}
    digests = {"parent": set(), "change": set()}
    all_correct = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, digest, correct = run_once(trees[side], args.workload, args.seed,
                                               args.seconds)
            samples[side].append(values)
            digests[side].add(digest)
            all_correct = all_correct and correct
        p, c = samples["parent"][-1], samples["change"][-1]
        print("pair %2d (%s first): wall_s parent %.4f change %.4f"
              % (i + 1, order[0], p["wall_s"], c["wall_s"]), file=sys.stderr)

    print("workload %s, seed %d, --seconds %d, %d alternating pairs"
          % (args.workload, args.seed, args.seconds, args.pairs))
    print("%-12s %-34s %-34s %6s %9s %s" % ("metric", "parent q1/median/q3",
                                          "change q1/median/q3", "wins", "median", "gain>IQR"))
    for name, better in metrics:
        p = [s[name] for s in samples["parent"]]
        c = [s[name] for s in samples["change"]]
        pq, cq = quartiles(p), quartiles(c)
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        delta = (cq[1] - pq[1]) / pq[1] * 100.0 if pq[1] else float("nan")
        gap = sign * (cq[1] - pq[1]) > pq[2] - pq[0]
        print("%-12s %-34s %-34s %3d/%-2d %+8.1f%% %s"
              % (name, "%.4g / %.4g / %.4g" % pq, "%.4g / %.4g / %.4g" % cq, wins,
                 args.pairs, delta, "yes" if gap else "no"))
    same = len(digests["parent"]) == 1 and digests["parent"] == digests["change"]
    print("digest parent %s change %s: %s" % (",".join(sorted(map(str, digests["parent"]))),
                                              ",".join(sorted(map(str, digests["change"]))),
                                              "match" if same else "DIFFER"))
    print("every run correct: %s" % ("yes" if all_correct else "NO"))
    sys.exit(0 if same and all_correct else 1)


if __name__ == "__main__":
    main()
