#!/usr/bin/env python3
"""Builds and runs the c1p benchmark (see perfbench/README.md).

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

Spread of K runs over seeds S, S+1, ... against the bounds in
BENCHMARK.json (exits 1 if an end-to-end spread exceeds its bound):

    python3 perfbench/run.py spread --workload serve --runs 10 --seed 1

Exact-repeat check: two traced runs of one seed must print identical
work counts (exits 1 if any differs):

    python3 perfbench/run.py repeat --workload dc --seed 1

Run from the repository root. Builds `c1pd` from the root workspace and
the benchmark package in perfbench/, offline, into $CARGO_TARGET_DIR
(default .bench_build).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk", "dc", "dc_par", "pqtree", "certify", "serve", "sessions"]
# one run measures `seconds` once (a traced run about as long again in
# traced windows) plus set-up and checks; anything past this is a hang
RUN_TIMEOUT_S = 170
# per-layer counts that do not depend on timing: identical for a seed
EXACT_COUNTS = [
    "core.subproblems", "core.decompositions", "core.members", "core.case2",
    "core.fast_merges", "core.bitmat_divides", "core.csr_divides",
    "core.allocs", "core.alloc_mb", "pram.work", "pram.depth",
    "pqtree.reductions", "pqtree.nodes_allocated", "cert.witness_atoms",
    "incremental.atoms_resolved", "incremental.components_resolved",
]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds c1pd and perfbench; returns the directory holding both."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        fail(f"no c1p workspace at {ROOT}: the benchmark builds the program from source")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)  # unchanged when already absolute
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "c1p-net", "--bin", "c1pd"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return target


def run_once(target, workload, seed, seconds, trace, capture=False):
    """One benchmark run; returns (exit code, stdout text or None)."""
    work = os.path.join(target, f"perfbench-work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--c1pd", os.path.join(release, "c1pd"), "--work-dir", work]
    # a session of its own, so a hang can be ended with every c1pd it started
    p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    shutil.rmtree(work, ignore_errors=True)
    return p.returncode, out.decode() if capture else None


def result(target, workload, seed, seconds, trace):
    code, out = run_once(target, workload, seed, seconds, trace, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"{workload} seed {seed} exited {code}")
    return json.loads(lines[-1])


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(target, a):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for i in range(a.runs):
        r = result(target, a.workload, a.seed + i, a.seconds, a.trace)
        runs.append(r)
        print(f"seed {a.seed + i}: attempted {r['attempted']} failed {r['failed']}",
              file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{a.workload}: {a.runs} runs, seeds {a.seed}..{a.seed + a.runs - 1}, "
          f"{a.seconds} s each, failed share {sorted(shares)}")
    print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}  bound")
    over = []
    for name in runs[0]["metrics"]:
        xs = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        q1, q2, q3 = quartiles(xs)
        rel = (q3 - q1) / abs(q2) if q2 else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = f"{bound:.3f} " + ("ok" if rel <= bound / 3 else "within" if rel <= bound else "OVER")
            if rel > bound:
                over.append(name)
        print(f"  {name + ' (' + unit + ')':<34}{q2:>14.4f}{q1:>14.4f}{q3:>14.4f}{rel:>9.4f}  {mark}")
    if len(shares) > 1:
        print("FAIL: the failed share differs between runs")
        return 1
    if over:
        print(f"FAIL: spread over bound for {', '.join(over)}")
        return 1
    return 0


def repeat(target, a):
    first = result(target, a.workload, a.seed, a.seconds, 1)["metrics"]
    second = result(target, a.workload, a.seed, a.seconds, 1)["metrics"]
    bad = 0
    for name in EXACT_COUNTS:
        x, y = first[name]["value"], second[name]["value"]
        same = x == y
        bad += not same
        print(f"  {name:<34}{x:>16}{y:>16}  {'same' if same else 'DIFFERENT'}")
    print(f"{a.workload} seed {a.seed}: " + ("counts repeat exactly" if not bad
                                             else f"FAIL: {bad} count(s) differ"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", nargs="?", default="run", choices=["run", "spread", "repeat"])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    target = build()
    if a.mode == "spread":
        sys.exit(spread(target, a))
    if a.mode == "repeat":
        sys.exit(repeat(target, a))
    code, _ = run_once(target, a.workload, a.seed, a.seconds, a.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
