#!/usr/bin/env python3
"""Interleaved A/B run of the end-to-end benchmark against a base revision.

    python3 tools/perf_ab.py <git-rev> [--workload NAME ...] [--pairs N]
                             [--seconds S] [--seed N]

Run from anywhere inside a checkout.  The base revision is checked out into
a temporary `git worktree`; each side then runs its own perfbench/run.py
(the base's unchanged, the working tree's as it stands), each building into
its own CARGO_TARGET_DIR.  The runs alternate in pairs on this host, the
order flipping every pair, so drift in host speed hits both sides alike.

For every workload the script prints, for each end-to-end metric of
BENCHMARK.json, both sides' median and quartiles, the relative change of the
medians and the number of pairs the working tree won, and exits 1 when
a median is worse than the base's by more than the metric's bound, when a
run reports correct=false, or when the working tree fails a larger share
of operations than the base.  The worktree is removed afterwards.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_side(root, target_dir, workload, seed, seconds):
    """Runs one workload through `root`'s perfbench/run.py and returns its
    result object (the last line it prints)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perf_ab: {root}: run.py printed no result "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(values):
    """Median and quartiles of one side's runs, formatted."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def compare(workload, spec, runs):
    """Prints the medians of one workload; returns its list of failures."""
    failures = []
    for side, results in runs.items():
        bad = [r for r in results if not r["correct"]]
        if bad:
            failures.append(f"{workload}: {len(bad)} {side} run(s) "
                            "reported correct=false")
    shares = {side: sum(r["failed"] for r in results) /
              max(1, sum(r["attempted"] for r in results))
              for side, results in runs.items()}
    if shares["head"] > shares["base"]:
        failures.append(f"{workload}: failed share {shares['base']:.4f} -> "
                        f"{shares['head']:.4f}")
    print(f"{workload}  ({len(runs['head'])} pairs)")
    print(f"  {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30}{'change':>9}{'wins':>7}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results
                         if name in r["metrics"]]
                  for side, results in runs.items()}
        if not values["base"] or not values["head"]:
            continue
        base = statistics.median(values["base"])
        head = statistics.median(values["head"])
        change = (head - base) / base if base else 0.0
        sign = 1 if metric["better"] == "lower" else -1
        # Pairs in which the working tree reads better; ties count for
        # neither side.
        wins = sum(sign * (h - b) < 0
                   for b, h in zip(values["base"], values["head"]))
        flag = "  REGRESSION" if sign * change > metric["bound"] else ""
        print(f"  {name:<12} {spread(values['base']):>30} "
              f"{spread(values['head']):>30}{change:>+9.1%}"
              f"{wins:>4}/{len(values['head']):<2}{metric['bound']:>7.2f}{flag}")
        if flag:
            failures.append(f"{workload}: {name} median {base:.6g} -> "
                            f"{head:.6g} ({change:+.1%}, bound "
                            f"{metric['bound']:.2f})")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="Interleaved A/B of perfbench/run.py against a base "
                    "revision (see the module docstring).")
    parser.add_argument("base", help="base git revision")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: "
                             "every workload of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=3,
                        help="alternating base/head run pairs per workload")
    parser.add_argument("--seconds", type=int, default=10,
                        help="--seconds passed to run.py")
    parser.add_argument("--seed", type=int, default=1,
                        help="--seed passed to run.py")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    base_rev = git(root, "rev-parse", "--verify", args.base + "^{commit}")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    scratch = tempfile.mkdtemp(prefix="perf_ab-")
    base_root = os.path.join(scratch, "base")
    git(root, "worktree", "add", "--detach", base_root, base_rev)
    sides = {"base": (base_root, os.path.join(scratch, "build-base")),
             "head": (root, os.path.join(scratch, "build-head"))}
    failures = []
    try:
        print(f"base {base_rev[:12]} vs working tree of {root}")
        for workload in workloads:
            runs = {"base": [], "head": []}
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    side_root, target_dir = sides[side]
                    runs[side].append(run_side(side_root, target_dir, workload,
                                               args.seed, args.seconds))
            failures += compare(workload, spec, runs)
    finally:
        git(root, "worktree", "remove", "--force", base_root)
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        print("FAIL " + failure)
    print("perf_ab: " + ("fail" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
