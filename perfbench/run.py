#!/usr/bin/env python3
"""ISRec end-to-end benchmark: build from this checkout, then run.

One run:
    python3 perfbench/run.py --workload engine_long_history --seed 1 \
        --seconds 20 --trace 0
prints progress lines and, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`. `--trace 1` is the traced
run: it prints the per-layer metrics instead and writes a span file.

Repeat mode runs one workload N times with seeds seed..seed+N-1 and
prints each metric's median, quartiles and spread (IQR / median):
    python3 perfbench/run.py --workload routed_http --repeat 10

Self-test of the benchmark's own code (percentile rule, Poisson
schedule, lateness accounting, output checks against corrupted results):
    python3 perfbench/run.py --self-test

Builds go to .bench_build/ and run outputs (datasets' checkpoints, logs,
span files) to .bench_out/, both under the checkout root.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TARGETS = ["perfbench", "perfbench_selftest", "isrec_serve_tool",
           "isrec_router_tool"]
WORKLOADS = ["engine_long_history", "engine_large_catalog", "routed_http",
             "train_eval"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure.

    A failed compile is retried once on a single job: on a machine shared
    with other tenants a compiler can be killed for memory (each job needs
    up to ~0.5 GB), which fails a parallel build with no fault in the
    source. A real compile error fails the retry too."""
    jobs = max(1, min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        if not run_step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    for j in sorted({jobs, 1}, reverse=True):
        if run_step(["cmake", "--build", BUILD_DIR, "-j", str(j), "--target"]
                    + TARGETS):
            return True
    return False


def run_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        log("perfbench: build step failed: " + " ".join(cmd))
    return proc.returncode == 0


def run_child(cmd):
    """Runs cmd with stdout passed through; forwards SIGINT/SIGTERM so the
    driver can stop the processes it started, then waits for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def forward(sig, _frame):
        if proc.poll() is None:
            proc.send_signal(sig)

    old = {s: signal.signal(s, forward) for s in (signal.SIGINT,
                                                  signal.SIGTERM)}
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            print(line, end="", flush=True)
        code = proc.wait()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return code, lines


def bench_cmd(workload, seed, seconds, trace):
    return [os.path.join(BUILD_DIR, "perfbench"), "run",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--bin-dir", os.path.join(BUILD_DIR, "isrec", "tools"),
            "--out-dir", OUT_DIR]


def spread_table(results):
    """Median, quartiles and IQR/median of each metric over runs."""
    names = list(results[0]["metrics"].keys())
    rows = []
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows.append((name, results[0]["metrics"][name]["unit"], med, q1, q3,
                     spread))
    return rows


def repeat(args):
    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        code, lines = run_child(bench_cmd(args.workload, seed, args.seconds,
                                          args.trace))
        if code != 0:
            log("perfbench: run with seed %d failed (exit %d)" % (seed, code))
            return 1
        results.append(json.loads(lines[-1]))
    print("\n%s: %d runs, seeds %d..%d, %s s each" % (
        args.workload, args.repeat, args.seed, args.seed + args.repeat - 1,
        args.seconds))
    print("%-34s %-12s %14s %14s %14s %8s" % ("metric", "unit", "median",
                                              "q1", "q3", "spread"))
    for name, unit, med, q1, q3, spread in spread_table(results):
        print("%-34s %-12s %14.6g %14.6g %14.6g %7.2f%%" % (
            name, unit, med, q1, q3, 100 * spread))
    failed = {r["failed"] / r["attempted"] for r in results}
    print("failed share per run: %s" % sorted(failed))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run the workload this many times, print spread")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.repeat == 1 or args.repeat < 0:
        parser.error("--repeat needs at least 2 runs")

    if not build():
        return 1
    if args.self_test:
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode
    if args.repeat:
        return repeat(args)
    code, _ = run_child(bench_cmd(args.workload, args.seed, args.seconds,
                                  args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main())
