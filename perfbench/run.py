#!/usr/bin/env python3
"""Run one plinger++ benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of hierarchy_mdm, auto_lcdm, serve_mcmc (see
perfbench/README.md).  The first run in a checkout builds the benchmark
executable from the checkout's sources into .bench_build/perfbench
(about a minute); later runs reuse it.  Build output goes to stderr
when the build fails.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (which also writes a Chrome trace
to .bench_build/perfbench/traces/).  The exit status is 0 when every
correctness gate passed, 1 when one failed, and 2 when the benchmark
could not run (then no result line is printed).

Maintenance: --write-reference rewrites the committed C_l reference of a
batch workload from one cycle of the current code (--small for the
self-test size).
"""

import argparse
import fcntl
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("hierarchy_mdm", "auto_lcdm", "serve_mcmc")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# A run must end within 180 s, or 900 s when it also builds.
RUN_LIMIT_S = 170
BUILD_RUN_LIMIT_S = 880


class BenchError(Exception):
    pass


def build():
    """Configure (once) and build the executable; returns its path and
    whether anything was compiled."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no plinger++ sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    exe = BUILD / "perfbench"
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = BUILD / "CMakeCache.txt"
        if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in cache.read_text():
            # Configured from another checkout: start over.
            for entry in BUILD.iterdir():
                if entry.name != ".lock":
                    shutil.rmtree(entry) if entry.is_dir() else entry.unlink()
        before = exe.stat().st_mtime if exe.is_file() else None
        steps = []
        if not cache.is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "2"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                raise BenchError("build failed: " + " ".join(cmd))
    if not exe.is_file():
        raise BenchError(f"build produced no {exe}")
    return exe, before != exe.stat().st_mtime


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise BenchError(f"result keys {sorted(result)}")
    if (ROOT / "BENCHMARK.json").is_file() and list(result["metrics"]) != declared_metrics(trace):
        raise BenchError("printed metrics differ from BENCHMARK.json")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes (the self-test)")
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite the workload's committed C_l reference")
    ap.add_argument("--reference-dir", default=str(HERE / "reference"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    start = time.monotonic()
    try:
        exe, built = build()
        cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference-dir", args.reference_dir,
               "--work-dir", str(BUILD / "work")]
        if args.trace:
            cmd += ["--trace-out",
                    str(BUILD / "traces" / f"{args.workload}-seed{args.seed}.json")]
        if args.small:
            cmd.append("--small")
        if args.write_reference:
            cmd.append("--write-reference")
        limit = BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S
        timeout = max(10.0, limit - (time.monotonic() - start))
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args.workload} did not finish in {timeout:.0f} s")
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stdout)
            raise BenchError(f"{args.workload} exited with status {proc.returncode}")
        check_result(lines[-1], args.trace and not args.write_reference)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
