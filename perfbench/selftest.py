#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at reduced size, untraced and traced, and checks:
  * every metric BENCHMARK.json declares is printed, with its unit, and
    names and units follow the grammar (letters, digits, _ . - ...);
  * the correctness gates pass on the committed references and fire on
    doctored ones (and tolerate a change inside the tolerance);
  * the serve_mcmc request log is a function of the seed, logs of two
    seeds give the daemon the same work, and the lattice sits between
    the daemon's context-cache and LRU capacities;
  * without the repository's sources the benchmark fails fast and
    prints no result.
Exits 0 when every check passes.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the source tree clean
import run as bench  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SCRATCH = bench.BUILD / "selftest"
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def invoke(*args, cwd=None):
    """run.py with `args`; returns (status, stdout lines, result or None)."""
    script = (cwd / "perfbench" / "run.py") if cwd else HERE / "run.py"
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if result is not None and set(result) != bench.RESULT_KEYS:
        result = None
    return proc.returncode, lines, result


def check_metrics(tag, result, trace):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    check(list(printed) == [m["name"] for m in declared],
          f"{tag}: prints exactly the declared metrics, in order")
    bad = [m["name"] for m in declared
           if not (NAME.match(m["name"]) and UNIT.match(m["unit"]) and
                   printed.get(m["name"], {}).get("unit") == m["unit"] and
                   isinstance(printed[m["name"]].get("value"), (int, float)) and
                   math.isfinite(printed[m["name"]]["value"]))]
    check(not bad, f"{tag}: every metric has a valid name, unit and value"
          + (f" (not: {', '.join(bad)})" if bad else ""))


def workload_checks():
    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            status, lines, result = invoke(
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--small")
            check(status == 0 and result is not None and result["correct"] and
                  result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: runs, correct, nothing failed")
            if result is None:
                continue
            check_metrics(tag, result, trace)
            info = json.loads(lines[-2])["info"]
            if workload == "serve_mcmc":
                check({"seed", "distinct_cosmologies", "tier_compute",
                       "tier_journal", "tier_lru"} <= set(info),
                      f"{tag}: records seed, distinct cosmologies, tiers")
            if trace:
                trace_file = Path(info.get("trace_file", "/nonexistent"))
                check(trace_file.is_file() and
                      "traceEvents" in json.loads(trace_file.read_text()),
                      f"{tag}: Chrome trace written")
                m = {k: v["value"] for k, v in result["metrics"].items()}
                check(m["bench.split_mismatches"] == 0,
                      f"{tag}: make_spectra split reproduces it bitwise")
                if workload == "auto_lcdm":
                    check(m["boltzmann.modes_projected"] > 0 and
                          m["store.journal_bytes"] > 0,
                          f"{tag}: projection and journal measured")
                if workload == "hierarchy_mdm":
                    check(m["boltzmann.modes_projected"] == 0 and
                          m["store.journal_bytes"] == 0 and
                          m["math.rhs_evals"] > 0,
                          f"{tag}: evolution only, no projection or store")


def doctored(workload, column, factor):
    """A reference directory whose `column` is scaled by `factor` at the
    l where that column peaks (so the peak guard does not soften it)."""
    ref_dir = SCRATCH / f"ref-{workload}-{column}-{factor}"
    shutil.rmtree(ref_dir, ignore_errors=True)
    ref_dir.mkdir(parents=True)
    name = f"{workload}_small.txt"
    col = {"tt": 1, "ee": 2, "te": 3}[column]
    lines = (HERE / "reference" / name).read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    peak = max(rows, key=lambda i: abs(float(lines[i].split()[col])))
    fields = lines[peak].split()
    fields[col] = repr(float(fields[col]) * factor)
    lines[peak] = " ".join(fields)
    (ref_dir / name).write_text("\n".join(lines) + "\n")
    return ref_dir


def gate_checks():
    for workload, column, factor, should_pass in (
            ("hierarchy_mdm", "tt", 1.01, False),
            ("hierarchy_mdm", "tt", 1.003, True),
            ("auto_lcdm", "ee", 1.05, False),
            ("auto_lcdm", "te", 1.5, False)):
        status, _, result = invoke(
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", "0", "--small",
            "--reference-dir", str(doctored(workload, column, factor)))
        if should_pass:
            check(status == 0 and result and result["correct"],
                  f"{workload}: {column} x{factor} (inside tolerance) passes")
        else:
            check(status == 1 and result and not result["correct"] and
                  result["failed"] == result["attempted"],
                  f"{workload}: {column} x{factor} fails every mode")


def log_checks():
    exe = bench.BUILD / "perfbench"

    def log(seed):
        proc = subprocess.run(
            [str(exe), "--workload", "serve_mcmc", "--seed", str(seed),
             "--work-dir", str(SCRATCH), "--log-only"],
            capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    a, b, c = log(11), log(11), log(12)
    check(a == b, "serve_mcmc: same seed, same log")
    check(a["digest"] != c["digest"], "serve_mcmc: another seed, another log")
    work = ("builds", "computes", "journal", "coalesced", "paired")
    check(all(a[k] == c[k] for k in work),
          "serve_mcmc: another seed, the same daemon work")
    check(a["requests"] * a["min_replays"] >= 1000,
          "serve_mcmc: at least 1000 requests per run")
    check(a["context_capacity"] < a["lattice"] <= a["lru_capacity"],
          "serve_mcmc: lattice between context cache and LRU capacity")
    check(a["distinct"] > a["context_capacity"],
          "serve_mcmc: the log visits more cosmologies than contexts fit")


def bare_checkout_check():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    status, _, result = invoke("--workload", "auto_lcdm", "--seed", "1",
                               "--seconds", "1", "--trace", "0", cwd=bare)
    check(status != 0 and result is None,
          "without the sources: fails, prints no result")
    shutil.rmtree(bare)


def main():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    workload_checks()
    gate_checks()
    log_checks()
    bare_checkout_check()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
