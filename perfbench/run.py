#!/usr/bin/env python3
"""End-to-end benchmark of megflood (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --pin-digests <first>-<last>

Run from the root of a checkout.  The first form builds the harness and
the megflood_serve daemon from source (Release/-O2, into .bench_build or
$CARGO_TARGET_DIR), runs one workload, checks its results and prints one
context line and then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}; --workload all runs every
workload in turn and prints both lines for each.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.  The
exit code is 0 only when every correctness check passed.

--self-test runs every workload at tiny size and checks that each metric
is printed with its unit and that a corrupted result byte and a rejected
job are both caught.  --pin-digests rewrites perfbench/digests.json for
the given seed range.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
CAMPAIGN_WORKLOADS = ("flood_edge_meg_1m", "gossip_edge_meg_32k")
HARNESS_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds the harness; returns the binary directory."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", "4"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    # Same refusal as bench/run_kernels.sh: only a Release tree records.
    build_type = ""
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        raise SystemExit(f"perfbench: {out} is configured as '{build_type}', "
                         "not Release")
    return out


def context(bin_dir, workload, seed):
    compiler = "unknown"
    with open(os.path.join(bin_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                try:
                    version = subprocess.run([path, "--version"], text=True,
                                             stdout=subprocess.PIPE,
                                             stderr=subprocess.DEVNULL).stdout
                    compiler = version.splitlines()[0] if version else path
                except OSError:
                    compiler = path
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        commit = ""
    return {"compiler": compiler, "build_type": "Release",
            "cxx_flags_release": "-O2 -DNDEBUG", "nproc": os.cpu_count(),
            "commit": commit or "unknown (not a git checkout)",
            "workload": workload, "seed": seed}


def run_harness(bin_dir, workload, seed, seconds, trace, extra=()):
    """Runs the harness; returns (exit code, parsed last line or None)."""
    run_dir = os.path.join(os.path.dirname(bin_dir), "run",
                           f"{workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [os.path.join(bin_dir, "perfbench_harness"), f"--workload={workload}",
           f"--seed={seed}", f"--seconds={seconds}", f"--trace={trace}",
           f"--bin_dir={bin_dir}", f"--run_dir={os.path.relpath(run_dir, ROOT)}",
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {HARNESS_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def gate(spec, workload, seed, trace, code, result):
    """Applies the checks the harness cannot: the metric list and the pinned
    digest.  Returns (correct, attempted, failed, metrics, notes)."""
    notes = list(result.get("failures", []))
    failed = result["failed"]
    if code != 0 or not result["correct"]:
        notes.append(f"harness reported failure (exit {code})")
    want = expected_metrics(spec, trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        notes.append(f"metric set differs from BENCHMARK.json: missing "
                     f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                     f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
    if workload in CAMPAIGN_WORKLOADS:
        with open(DIGESTS) as f:
            pinned = json.load(f).get(workload, {}).get(str(seed))
        digest = hashlib.sha256(result["result_bytes"].encode()).hexdigest()
        if pinned is None:
            notes.append(f"note: seed {seed} has no pinned digest ({digest})")
        elif pinned != digest:
            failed += 1
            notes.append(f"result digest {digest} != pinned {pinned}")
    correct = not [n for n in notes if not n.startswith("note:")]
    if not correct:
        failed = max(failed, 1)
    return correct, result["attempted"], failed, result["metrics"], notes


def measure(args):
    """Runs one workload, or every workload in turn for --workload all; the
    last line printed is the result of the last workload run."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        raise SystemExit(f"perfbench: unknown workload {args.workload}; "
                         f"one of {names} or all")
    bin_dir = build()
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        code, result = run_harness(bin_dir, workload, args.seed, args.seconds,
                                   args.trace)
        if result is None:
            raise SystemExit(f"perfbench: {workload} produced no result (exit {code})")
        correct, attempted, failed, metrics, notes = gate(
            spec, workload, args.seed, args.trace, code, result)
        print(json.dumps({"context": context(bin_dir, workload, args.seed),
                          "info": result.get("info", {}), "notes": notes}))
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        status = status or (0 if correct else 1)
    return status


def self_test():
    spec = load_spec()
    bin_dir = build()
    problems = []
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result = run_harness(bin_dir, w, 1, 1, trace, ["--tiny"])
            if result is None or code != 0 or not result["correct"]:
                problems.append(f"{w} trace={trace}: tiny run failed: "
                                f"{result and result.get('failures')}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected_metrics(spec, trace):
                problems.append(f"{w} trace={trace}: metric names/units differ")
        faults = ["corrupt"] + (["reject"] if w.startswith("serve_") else [])
        for fault in faults:
            code, result = run_harness(bin_dir, w, 1, 1, 0, ["--tiny", f"--inject={fault}"])
            caught = code != 0 and result is not None and not result["correct"] \
                and result["failed"] >= 1
            log(f"self-test {w} inject={fault}: {'caught' if caught else 'MISSED'}")
            if not caught:
                problems.append(f"{w}: injected '{fault}' was not caught")
        log(f"self-test {w}: done")
    for p in problems:
        log("self-test FAILED: " + p)
    print(json.dumps({"self_test": "pass" if not problems else "fail",
                      "problems": problems}))
    return 0 if not problems else 1


def pin_digests(seed_range):
    first, last = (int(x) for x in seed_range.split("-"))
    bin_dir = build()
    pins = {}
    for w in CAMPAIGN_WORKLOADS:
        pins[w] = {}
        for seed in range(first, last + 1):
            proc = subprocess.run([os.path.join(bin_dir, "perfbench_harness"),
                                   f"--workload={w}", f"--seed={seed}", "--pin"],
                                  stdout=subprocess.PIPE, text=True, check=True)
            result_bytes = proc.stdout.rstrip("\n")
            pins[w][str(seed)] = hashlib.sha256(result_bytes.encode()).hexdigest()
            log(f"pinned {w} seed {seed}")
    with open(DIGESTS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin-digests", metavar="FIRST-LAST")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.pin_digests:
        return pin_digests(args.pin_digests)
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return measure(args)


if __name__ == "__main__":
    start = time.monotonic()
    status = main()
    log(f"perfbench: {time.monotonic() - start:.1f} s")
    sys.exit(status)
