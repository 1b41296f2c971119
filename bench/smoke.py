#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 bench/smoke.py

For every workload it runs a tiny version (a few cases) and checks that
- the last output line is a well-formed result and every metric that
  BENCHMARK.json names is emitted with its unit (end-to-end metrics with
  --trace 0, per-layer metrics with --trace 1);
- two runs with the same seed give identical failure counts, failure
  histograms and accuracy digits;
- the runs leave src/ and tests/ byte-unchanged.
Exits 0 when every check passes, 1 otherwise.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = 3
# With this seed the tiny construct run includes a failing op, so the
# repeatability check covers a non-empty failure histogram too.
SEED = 2
DIGITS = ("residual_digits", "symmetry_digits", "pairing_digits")


def tree_hash(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "600", "--trace", str(trace),
         "--cases", str(CASES)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    with open(record_path) as fh:
        record = json.load(fh)
    return result, record


def check_result(result, expected, where):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or \
            not isinstance(result["failed"], int):
        problems.append(f"{where}: bad attempted/failed {result['attempted']}/{result['failed']}")
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{where}: metric {spec['name']} missing")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{where}: {spec['name']} unit {got['unit']} != {spec['unit']}")
    extra = set(result["metrics"]) - {spec["name"] for spec in expected}
    if extra:
        problems.append(f"{where}: unlisted metrics {sorted(extra)}")
    return problems


def fingerprint(result, record):
    """What must repeat exactly for a seed: failures and digits."""
    per_kind = record["diagnostics"]["per_kind"]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": {k: v["errors"] for k, v in per_kind.items()},
        "digits": {k: result["metrics"][k]["value"] for k in DIGITS},
    }


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    before = tree_hash("src", "tests")
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, first_rec = run(workload, 0)
        second, second_rec = run(workload, 0)
        traced, _ = run(workload, 1)
        problems += check_result(first, spec["end_to_end"], f"{workload} trace=0")
        problems += check_result(traced, spec["per_layer"], f"{workload} trace=1")
        a, b = fingerprint(first, first_rec), fingerprint(second, second_rec)
        if a != b:
            problems.append(f"{workload}: same seed, different outcome:\n  {a}\n  {b}")
        print(f"{workload}: attempted={a['attempted']} failed={a['failed']} "
              f"digits={a['digits']}")
    if tree_hash("src", "tests") != before:
        problems.append("src/ or tests/ changed during the runs")
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
