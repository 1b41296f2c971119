#!/usr/bin/env python3
"""palinverse benchmark: one closed-loop client per workload, one process.

Run from the root of a checkout:

    python3 bench/run.py --workload construct --seed 1 --seconds 16 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 16 --trace 1

A run does a fixed amount of work: the number of cases is --seconds times
the workload's CASES_PER_S, the rate at the reference speed, so the same
seed attempts the same ops on every run and its failures repeat exactly.
Times are reported at the reference speed (see calibrate.py).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
spends the first half of the work untraced and the second half with the
per-layer tracer and tracemalloc on, and reports the per-layer metrics
(self time per op, call counts, memory peaks, tracing overhead).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record (provenance, failure
histograms, tail percentiles, spans) is written under .bench_out/.

The package is imported from the checkout's src/ and nowhere else; the
run refuses to start when that is not the copy that gets imported.
"""

import os

# One BLAS thread, set before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import json
import math
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from statistics import median

import numpy
import scipy

import calibrate
from oracle import Defects
from tracing import Tracer
from workloads import WORKLOADS, Recorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Fresh starts for setup_s: half before the measured loop, half after it,
# so one run's median spans the machine's state over the whole run.
SETUP_STARTS = 6
FLOOR_STARTS = 3
IMPORT_CODE = "import palinverse"
# A loop stops early, between cases, once it has run this many times its
# nominal length (and at most MAX_LOOP_S), so a badly slowed build still
# ends within the time a run is allowed.
LOOP_SLACK, MAX_LOOP_S = 5.0, 120.0

# name -> unit; every workload reports every one of these with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "completed_frac": "ratio",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "residual_digits": "digits",
    "symmetry_digits": "digits",
    "pairing_digits": "digits",
}

SELF_TIMES = (
    "numerics.dense_eig", "numerics.sv_ratio", "numerics.linear_solve",
    "numerics.rank_factorize", "system.eval_Q", "system.pair_residual",
    "system.validate", "structfact.star_factorize",
    "paramspace.solution_space", "paramspace.s_basis",
    "paramspace.constrained_family", "paramspace.sample_nonsingular",
    "spectral.coefficients_from_pair", "forward.eig_full",
    "forward.select_pairs", "iep.solve_iep_full", "iep.solve_iep_partial",
    "iep.congruence", "mup.problem_check", "mup.compute_S1",
    "mup.low_rank_update", "mup.update_free", "mup.update_prescribed",
    "fileio.load_system", "fileio.save_system", "fileio.load_pair",
)
CALL_COUNTS = ("numerics.sv_ratio", "numerics.linear_solve", "system.eval_Q",
               "structfact.star_factorize", "paramspace.solution_space")
PROBES = ("compute", "svd", "start")
CLI_KINDS = {"cli_solve": "cli.solve_s", "cli_update": "cli.update_s",
             "cli_eig": "cli.eig_s"}


def _load_file(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _inside(path, root):
    try:
        Path(path).resolve().relative_to(root.resolve())
        return True
    except ValueError:
        return False


class Context:
    """What the workloads need from the checkout: the package, the test
    suite's seeded generators and reference problems, and a child
    environment that imports the same package copy."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import palinverse
        if not _inside(palinverse.__file__, SRC):
            raise RuntimeError(
                f"palinverse imported from {palinverse.__file__}, not from {SRC}")
        self.pv = palinverse
        self.helpers = _load_file("bench_helpers", ROOT / "tests" / "helpers.py")
        self.reference_problems = _load_file(
            "bench_reference_problems", ROOT / "tests" / "reference_problems.py")
        self.child_env = dict(os.environ, PYTHONPATH=str(SRC))
        self.start = calibrate.start_calibration(ROOT, self.child_env)

    def calibrations(self, workload):
        """probe name -> Calibration, for the probes the workload uses."""
        known = {"compute": calibrate.COMPUTE, "svd": calibrate.SVD,
                 "start": self.start}
        return {name: known[name] for name in sorted(set(workload.CALIBRATION.values()) - {None})}

    def workdir(self, name):
        OUT.mkdir(exist_ok=True)
        return tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)

    def fresh_starts(self, code, count):
        """Wall seconds, at the reference speed, of `count` fresh
        interpreters running `code`."""
        return [self.start.timed(lambda: subprocess.run(
                    [sys.executable, "-c", code], cwd=ROOT, env=self.child_env,
                    check=True, capture_output=True, timeout=120))
                for _ in range(count)]

    def scipy_import_s(self):
        """Cumulative import time of scipy.linalg under `import palinverse`."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                              cwd=ROOT, env=self.child_env, check=True,
                              capture_output=True, text=True, timeout=120)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "scipy.linalg":
                return int(parts[1]) / 1e6
        return 0.0


def provenance(ctx):
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, env=git_env,
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "palinverse_file": ctx.pv.__file__,
    }


def case_count(workload, seconds, override):
    if override is not None:
        return override
    return max(1, round(seconds * workload.CASES_PER_S))


def run_loop(workload, cals, cases, seconds, tracer=None):
    """Run `cases` cases, cycling over the pool in order.  Untraced loops
    time every calibration probe in `cals` before every case and after the
    last."""
    rec = Recorder(tracer)
    probes = {name: [] for name in cals}

    def sample():
        for name, cal in cals.items():
            probes[name].append(cal.sample())

    max_wall = min(LOOP_SLACK * seconds, MAX_LOOP_S)
    start = time.perf_counter()
    while rec.case < cases and time.perf_counter() - start < max_wall:
        if tracer is None:
            sample()
        case = workload.cases[rec.case % len(workload.cases)]
        workload.run_case(case, rec)
        if tracer is not None:
            workload.probe(case, rec)
        rec.case += 1
    rec.wall_s = time.perf_counter() - start
    rec.probe_s = {}
    if tracer is None:
        sample()
        factors = {name: cal.case_factors(probes[name]) for name, cal in cals.items()}
        rec.factors = {kind: factors.get(name) for kind, name in workload.CALIBRATION.items()}
        rec.probe_s = {name: median(v) for name, v in probes.items()}
    return rec


def _p50s(rec, kinds):
    latencies = rec.latencies()
    return {k: median(latencies[k]) for k in kinds if latencies.get(k)}


def end_to_end(rec, workload, setup_times):
    p50 = _p50s(rec, workload.kinds)
    busy = rec.busy_s()
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": median(setup_times),
        "ops_per_s": rec.completed / busy if busy > 0 else 0.0,
        "completed_frac": rec.completed / max(rec.total_attempted, 1),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        # Geometric mean of the per-kind medians: every op kind of the
        # workload weighs the same, whatever its size.
        "op_p50_s": math.exp(sum(map(math.log, p50.values())) / len(p50)) if p50 else 0.0,
        "residual_digits": rec.typical_digits("residual"),
        "symmetry_digits": rec.typical_digits("symmetry"),
        "pairing_digits": rec.typical_digits("pairing"),
    }


def per_layer_units():
    """name -> unit of every per-layer metric, in report order."""
    units = {f"{name}.self_s": "s" for name in SELF_TIMES}
    units.update({f"{name}.calls": "calls/op" for name in CALL_COUNTS})
    units.update({
        "paramspace.sample_nonsingular.accept_ratio": "ratio",
        "iep.attempts_per_op": "attempts/op",
        "iep.first_try_frac": "ratio",
        "mup.attempts_per_op": "attempts/op",
        "cli.interpreter_s": "s",
        "cli.import_s": "s",
        "cli.import_scipy_s": "s",
    })
    units.update({name: "s" for name in CLI_KINDS.values()})
    kinds = [k for w in WORKLOADS.values() for k in w.kinds]
    units.update({f"op.{k}.p50_s": "s" for k in kinds if k not in CLI_KINDS})
    units.update({f"mem.{k}_peak_mb": "MB" for k in kinds if k not in CLI_KINDS})
    units["mem.fileio_peak_mb"] = "MB"
    units.update({f"oracle.worst_{c}_digits": "digits"
                  for c in ("residual", "symmetry", "pairing", "spillover")})
    units["trace.overhead_frac"] = "ratio"
    units.update({f"host.{name}_probe_s": "s" for name in PROBES})
    return units


def per_layer(untraced, traced, tracer, workload, setup_times, floor_times, scipy_s,
              start_reference_s):
    self_s, calls, returned, draws = tracer.summary()
    per_op = max(traced.op_ids, 1)
    m = {f"{name}.self_s": self_s.get(name, 0.0) / per_op for name in SELF_TIMES}
    m.update({f"{name}.calls": calls.get(name, 0) / per_op for name in CALL_COUNTS})
    m["paramspace.sample_nonsingular.accept_ratio"] = \
        returned.get("paramspace.sample_nonsingular", 0) / draws if draws else 0.0
    solved = traced.counts["iep.solutions"]
    m["iep.attempts_per_op"] = traced.counts["iep.attempts"] / solved if solved else 0.0
    m["iep.first_try_frac"] = traced.counts["iep.first_try"] / solved if solved else 0.0
    updates = sum(n for k, n in traced.attempted.items() if k.startswith("update_"))
    m["mup.attempts_per_op"] = calls.get("mup.low_rank_update", 0) / updates if updates else 0.0
    # The floor is raw; at the reference speed it is start_reference_s.
    m["cli.interpreter_s"] = median(floor_times)
    m["cli.import_s"] = median(setup_times) - start_reference_s
    m["cli.import_scipy_s"] = scipy_s
    p50 = _p50s(untraced, workload.kinds)
    units = per_layer_units()
    for kind, name in CLI_KINDS.items():
        m[name] = p50.get(kind, 0.0)
    for name in units:
        if name.startswith("op."):
            m[name] = p50.get(name[3:-6], 0.0)
        elif name.startswith("mem."):
            m[name] = traced.mem_peak_mb.get(name[4:-8], 0.0)
    merged = Defects()
    merged.merge(untraced.defects)
    merged.merge(traced.defects)
    for category in merged.CATEGORIES:
        m[f"oracle.worst_{category}_digits"] = merged.digits(category)
    # Raw times on both sides: the traced half times no calibration probe,
    # because tracemalloc would slow the probe too.
    busy_a, busy_b = untraced.busy_s(raw=True), traced.busy_s(raw=True)
    rate_a = untraced.completed / busy_a if busy_a else 0.0
    rate_b = traced.completed / busy_b if busy_b else 0.0
    m["trace.overhead_frac"] = rate_a / rate_b - 1.0 if rate_b else 0.0
    for name in PROBES:
        m[f"host.{name}_probe_s"] = untraced.probe_s.get(name, 0.0)
    return {name: m[name] for name in units}


def percentile_summary(samples):
    """Median plus the highest of p75/p90/p95/p99 that has at least ten
    samples beyond it, with the sample count."""
    out = {"n": len(samples)}
    if not samples:
        return out
    s = sorted(samples)
    out["p50"] = median(s)
    for p in (99, 95, 90, 75):
        if len(s) * (100 - p) / 100.0 >= 10:
            out[f"p{p}"] = s[min(len(s) - 1, int(math.ceil(len(s) * p / 100.0)) - 1)]
            break
    return out


def diagnostics(rec):
    kinds = sorted(rec.attempted)
    latencies, raw = rec.latencies(), rec.latencies(raw=True)
    return {
        "cases": rec.case,
        "wall_s": rec.wall_s,
        "busy_s": rec.busy_s(),
        "raw_busy_s": rec.busy_s(raw=True),
        "calibration_probe_s": rec.probe_s,
        "speed_factor_range": {k: [min(f), max(f)] for k, f in rec.factors.items() if f}
                              if rec.factors else None,
        "attempted": rec.total_attempted,
        "failed": rec.total_failed,
        "failed_frac": rec.total_failed / max(rec.total_attempted, 1),
        "per_kind": {k: {"attempted": rec.attempted[k], "failed": rec.failed[k],
                         "failed_frac": rec.failed[k] / rec.attempted[k],
                         "errors": dict(rec.errors[k]),
                         "latency_s": percentile_summary(latencies.get(k, [])),
                         "raw_p50_s": median(raw[k]) if raw.get(k) else None}
                     for k in kinds},
        "digits": {c: rec.typical_digits(c) for c in rec.defects.CATEGORIES
                   if c in rec.defects.worst},
        "worst_digits": {c: rec.defects.digits(c) for c in rec.defects.CATEGORIES
                         if c in rec.defects.worst},
        "worst_defects": dict(rec.defects.worst),
        "gate_breaks": dict(rec.gate_breaks),
    }


def print_report(name, args, metrics, units, diag):
    print(f"== {name}  seed={args.seed}  trace={args.trace}  cases={diag['cases']}")
    for key, value in metrics.items():
        print(f"  {key:48s} {value:14.6g} {units[key]}")
    print(f"  failed_frac {diag['failed_frac']:.4f} ({diag['failed']}/{diag['attempted']})")
    for kind, d in diag["per_kind"].items():
        lat = ", ".join(f"{p}={v:.4g}" for p, v in d["latency_s"].items() if p != "n")
        errs = ", ".join(f"{e}: {c}" for e, c in sorted(d["errors"].items())) or "none"
        print(f"  {kind:22s} n={d['latency_s']['n']:<4d} {lat}  failures: {errs}")


def run_one(args):
    ctx = Context()
    prov = provenance(ctx)
    subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=ctx.child_env,
                   check=True, capture_output=True, timeout=120)  # warm the caches
    setup_times = ctx.fresh_starts(IMPORT_CODE, SETUP_STARTS // 2)
    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](ctx, args.seed)
    pool_s = time.perf_counter() - t0
    cals = ctx.calibrations(workload)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov, "setup_starts_s": setup_times,
              "pool_setup_s": pool_s, "pool_cases": len(workload.cases),
              "calibration": {"probe_of_kind": workload.CALIBRATION,
                              "reference_s": {n: c.reference_s for n, c in cals.items()}}}
    try:
        if args.trace == 0:
            rec = run_loop(workload, cals, case_count(workload, args.seconds, args.cases),
                           args.seconds)
            setup_times += ctx.fresh_starts(IMPORT_CODE, SETUP_STARTS - len(setup_times))
            metrics, units = end_to_end(rec, workload, setup_times), END_TO_END
            record["diagnostics"] = diag = diagnostics(rec)
            phases = [rec]
        else:
            half = case_count(workload, args.seconds / 2.0, args.cases)
            untraced = run_loop(workload, cals, half, args.seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            tracemalloc.start()
            try:
                traced = run_loop(workload, cals, half, args.seconds / 2.0, tracer)
            finally:
                tracemalloc.stop()
                tracer.uninstall()
            setup_times += ctx.fresh_starts(IMPORT_CODE, SETUP_STARTS - len(setup_times))
            floor = [ctx.start.sample() for _ in range(FLOOR_STARTS)]
            metrics = per_layer(untraced, traced, tracer, workload, setup_times,
                                floor, ctx.scipy_import_s(), ctx.start.reference_s)
            units = per_layer_units()
            record["diagnostics"] = diag = diagnostics(untraced)
            record["traced_diagnostics"] = diagnostics(traced)
            record["spans"] = tracer.dump()
            phases = [untraced, traced]
    finally:
        workload.close()
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print_report(args.workload, args, metrics, units, diag)
    return {"correct": not any(r.gate_breaks for r in phases),
            "attempted": sum(r.total_attempted for r in phases),
            "failed": sum(r.total_failed for r in phases),
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def run_all(args):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.cases is not None:
            cmd += ["--cases", str(args.cases)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cases", type=int, default=None,
                        help="run this many cases instead of --seconds x CASES_PER_S "
                             "(smoke test)")
    args = parser.parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
