"""The four benchmark workloads.

Each workload builds a pool of cases from the seed during set-up, then the
run loop cycles over the pool, one case at a time, in one closed-loop
client.  A case runs one operation of each kind the workload has, so every
case exercises every accuracy check of its workload.  Every workload
cycles over the four classes tp / ta / hp / ha.  Prescribed data always
comes from a real system's own eigendata, so a solution exists; an input
the package fails on stays in the pool and counts as a failure.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from types import SimpleNamespace

import numpy as np

import oracle

CLASS_CODES = ("tp", "ta", "hp", "ha")


class OpFailure(Exception):
    """An operation failed in a way that has no Python exception of its
    own in this process (a CLI exit code, an input set-up could not make)."""

    def __init__(self, label, message=""):
        super().__init__(message or label)
        self.label = label


class Recorder:
    """Per-run accounting: latencies of completed ops, failures by kind and
    exception type, worst accuracy defects, and (traced runs) tracemalloc
    peaks per op kind.

    Times are kept raw with the index of their case; once the run loop
    sets `factors` (op kind -> one host-speed factor per case, see
    calibrate.py), latencies() and busy_s() report them at the reference
    speed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.case = 0
        self.factors = None
        self._completed = defaultdict(list)   # kind -> [(case, seconds)]
        self._busy = []                        # [(kind, case, seconds)], every op
        self.attempted = Counter()
        self.failed = Counter()
        self.errors = defaultdict(Counter)
        self.defects = oracle.Defects()
        self.op_defects = defaultdict(list)   # category -> worst per checked op
        self.gate_breaks = Counter()
        self.mem_peak_mb = defaultdict(float)
        self.counts = Counter()
        self.op_ids = 0

    def _enter(self):
        self.op_ids += 1
        if self.tracer is not None:
            self.tracer.op_id = self.op_ids
            tracemalloc.reset_peak()
            return tracemalloc.get_traced_memory()[0]
        return 0

    def _leave(self, kind, base):
        if self.tracer is not None:
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
            self.mem_peak_mb[kind] = max(self.mem_peak_mb[kind], peak)
            self.tracer.op_id = None

    def op(self, kind, fn, check):
        """Time fn(), then verify its output with check(out, defects),
        which returns the names of the documented gates the output
        breaks.  Returns the output, or None when the op failed."""
        base = self._enter()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            out, label = None, getattr(exc, "label", type(exc).__name__)
        dt = time.perf_counter() - t0
        self._leave(kind, base)
        self._busy.append((kind, self.case, dt))
        self.attempted[kind] += 1
        if out is None:
            self.failed[kind] += 1
            self.errors[kind][label] += 1
            return None
        local = oracle.Defects()
        breaks = check(out, local)
        self.defects.merge(local)
        for category, worst in local.worst.items():
            self.op_defects[category].append(worst)
        if breaks:
            self.failed[kind] += 1
            for name in breaks:
                self.errors[kind][f"gate:{name}"] += 1
                self.gate_breaks[name] += 1
            return None
        self._completed[kind].append((self.case, dt))
        return out

    def _scaled(self, kind, case, dt, raw):
        factors = None if raw or self.factors is None else self.factors[kind]
        return dt if factors is None else dt * factors[case]

    def typical_digits(self, category):
        """Digits of the median op: -log10 of the median over checked ops
        of each op's worst defect in `category`."""
        values = self.op_defects.get(category)
        return oracle.digits(float(np.median(values)) if values else None)

    def latencies(self, raw=False):
        """kind -> latencies of its completed ops, in seconds."""
        return {k: [self._scaled(k, case, dt, raw) for case, dt in v]
                for k, v in self._completed.items()}

    def busy_s(self, raw=False):
        """Summed wall time of every attempted op."""
        return sum(self._scaled(k, case, dt, raw) for k, case, dt in self._busy)

    def probe(self, kind, fn):
        """Run fn() under the tracer without counting it as an op."""
        base = self._enter()
        try:
            fn()
        finally:
            self._leave(kind, base)

    @property
    def total_attempted(self):
        return sum(self.attempted.values())

    @property
    def total_failed(self):
        return sum(self.failed.values())

    @property
    def completed(self):
        return self.total_attempted - self.total_failed


def _system_arrays(sys_):
    return np.asarray(sys_.A1), np.asarray(sys_.A0)


def _check_system(A1, A0, cls, defects, res_gate, sym_gate, pairs=None,
                  kept=None, new_values=None):
    """Shared oracle for an output system: residual of the pairs it must
    carry, residual of kept pairs (spillover), symmetry and the
    reciprocal closure of its spectrum."""
    breaks = []
    if pairs is not None:
        r = oracle.pair_residual(A1, A0, cls, *pairs)
        defects.add("residual", r)
        if r > res_gate:
            breaks.append("residual")
    if new_values is not None:
        defects.add("residual", [oracle.sigma_min_residual(A1, A0, cls, v)
                                 for v in new_values])
    if kept is not None:
        r = oracle.pair_residual(A1, A0, cls, *kept)
        defects.add("residual", r)
        defects.add("spillover", r)
        if r > oracle.KEPT_PAIR_GATE:
            breaks.append("spillover")
    s = oracle.symmetry_defect(A1, A0, cls)
    defects.add("symmetry", s)
    if s > sym_gate:
        breaks.append("symmetry")
    defects.add("pairing", oracle.closure_defect(A1, A0, cls))
    return breaks


def _pick_pairs(rng, pairing, values, count):
    """count reciprocal pairs (i != j, off the unit circle), at random."""
    off = [(a, b) for a, b in pairing
           if a != b and abs(abs(values[a]) - 1.0) > 1e-6]
    if len(off) < count:
        raise RuntimeError(f"only {len(off)} off-circle pairs, need {count}")
    idx = []
    for p in rng.choice(len(off), count, replace=False):
        idx.extend(off[int(p)])
    return idx


class Workload:
    kinds = ()
    # Cases per second at the reference speed (see calibrate.py); a run
    # does --seconds times this many cases.
    CASES_PER_S = None
    # op kind -> the calibration probe its times are scaled by, or None
    # for raw times (see calibrate.py).
    CALIBRATION = {}

    def __init__(self, ctx, seed):
        self.ctx = ctx
        self.rng = np.random.default_rng(np.random.SeedSequence(
            [seed, sorted(WORKLOADS).index(self.name)]))
        self.cases = []

    def seed_int(self):
        return int(self.rng.integers(0, 2 ** 31 - 1))

    def run_case(self, case, rec):
        raise NotImplementedError

    def probe(self, case, rec):
        """In-process work measured only by the traced pass."""

    def close(self):
        pass


class Construct(Workload):
    """solve_iep_full at n=8 (k=2n) and solve_iep_partial at n=24 with
    k=2 and k=12 eigenpairs of a seeded system."""

    name = "construct"
    N_FULL, N_PARTIAL, PARTIAL_K, REPS = 8, 24, (2, 12), 16
    CASES_PER_S = 3.4
    kinds = ("solve_full", "solve_partial_k2", "solve_partial_k12")
    CALIBRATION = {"solve_full": "svd", "solve_partial_k2": "compute",
                   "solve_partial_k12": "compute"}

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        pv, helpers = ctx.pv, ctx.helpers
        for _ in range(self.REPS):
            for code in CLASS_CODES:
                cls = pv.SymmetryClass.from_code(code)
                full = pv.eig_full(helpers.random_system(cls, self.N_FULL, self.seed_int()))
                big = pv.eig_full(helpers.random_system(cls, self.N_PARTIAL, self.seed_int()))
                partial = {}
                for k in self.PARTIAL_K:
                    idx = _pick_pairs(self.rng, big.pairing, big.values, k // 2)
                    partial[k] = (big.vectors[:, idx], np.diag(big.values[idx]))
                self.cases.append(dict(
                    cls=cls, full=(full.vectors, np.diag(full.values)),
                    partial=partial, seed=self.seed_int()))

    def run_case(self, case, rec):
        iep, cls, seed = self.ctx.pv.iep, case["cls"], case["seed"]
        X, T = case["full"]

        def check_full(sys_, defects):
            return _check_system(*_system_arrays(sys_), cls, defects,
                                 oracle.CONSTRUCT_RESIDUAL_GATE,
                                 oracle.CONSTRUCT_SYMMETRY_GATE, pairs=(X, T))

        rec.op("solve_full", lambda: iep.solve_iep_full(X, T, cls, seed), check_full)
        for k, (X1, T1) in case["partial"].items():
            def check_partial(sol, defects, X1=X1, T1=T1):
                rec.counts["iep.solutions"] += 1
                rec.counts["iep.attempts"] += sol.attempts
                rec.counts["iep.first_try"] += sol.attempts == 1
                return _check_system(*_system_arrays(sol.system), cls, defects,
                                     oracle.CONSTRUCT_RESIDUAL_GATE,
                                     oracle.CONSTRUCT_SYMMETRY_GATE, pairs=(X1, T1))

            rec.op(f"solve_partial_k{k}",
                   lambda X1=X1, T1=T1: iep.solve_iep_partial_result(
                       iep.IepProblem(cls, X1, T1, seed=seed)),
                   check_partial)


class Update(Workload):
    """No-spillover updates of order-48 systems, two per class: k in {2, 8}
    off-circle eigenvalues replaced, free and prescribed eigenvectors."""

    name = "update"
    N, KS, SYSTEMS_PER_CLASS, REPS = 48, (2, 8), 2, 2
    CASES_PER_S = 1.4
    kinds = ("update_free_k2", "update_free_k8",
             "update_prescribed_k2", "update_prescribed_k8")
    CALIBRATION = {"update_free_k2": "compute", "update_free_k8": "compute",
                   "update_prescribed_k2": None, "update_prescribed_k8": None}

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        pv, helpers = ctx.pv, ctx.helpers
        bases = []
        for _ in range(self.SYSTEMS_PER_CLASS):
            for code in CLASS_CODES:
                cls = pv.SymmetryClass.from_code(code)
                sys_ = helpers.random_system(cls, self.N, self.seed_int())
                A1, A0 = _system_arrays(sys_)
                bases.append((cls, sys_, pv.eig_full(sys_), oracle.eigen(A1, A0, cls)))
        for _ in range(self.REPS):
            for cls, sys_, eigs, (w, V) in bases:
                for k in self.KS:
                    idx = _pick_pairs(self.rng, eigs.pairing, eigs.values, k // 2)
                    old = eigs.values[idx]
                    new = []
                    for _ in range(k // 2):
                        mu = self.rng.uniform(0.3, 0.7) * np.exp(2j * np.pi * self.rng.uniform())
                        new += [mu, 1.0 / complex(oracle.star_scalar(cls, mu))]
                    replaced = set(oracle.nearest_indices(w, old))
                    kept = [i for i in range(len(w)) if i not in replaced]
                    case = dict(cls=cls, sys=sys_, k=k, X1=eigs.vectors[:, idx],
                                T1=np.diag(old), T1_new=np.diag(new),
                                kept=(V[:, kept], np.diag(w[kept])),
                                seed_free=self.seed_int(), seed_prescribed=self.seed_int())
                    # Prescribed vectors: an independent free update.
                    try:
                        res = pv.mup.update_model_result(pv.MupProblem(
                            sys_, case["X1"], case["T1"], case["T1_new"],
                            seed=self.seed_int()))
                        case["X1_new"], case["setup_error"] = res.X1_new, None
                    except Exception as exc:
                        case["X1_new"], case["setup_error"] = None, type(exc).__name__
                    self.cases.append(case)

    def run_case(self, case, rec):
        mup, cls, k = self.ctx.pv.mup, case["cls"], case["k"]
        X1, T1, T1n = case["X1"], case["T1"], case["T1_new"]

        def checker(vectors_of, system_of):
            def check(out, defects):
                return _check_system(*_system_arrays(system_of(out)), cls, defects,
                                     oracle.UPDATE_RESIDUAL_GATE,
                                     oracle.UPDATE_SYMMETRY_GATE,
                                     pairs=(vectors_of(out), T1n), kept=case["kept"])
            return check

        rec.op(f"update_free_k{k}",
               lambda: mup.update_model_result(mup.MupProblem(
                   case["sys"], X1, T1, T1n, seed=case["seed_free"])),
               checker(lambda res: res.X1_new, lambda res: res.system))

        def prescribed():
            if case["X1_new"] is None:
                raise OpFailure(f"setup:{case['setup_error']}",
                                "the free update that supplies the vectors failed")
            return mup.update_model_prescribed(mup.MupProblem(
                case["sys"], X1, T1, T1n, X1_new=case["X1_new"],
                seed=case["seed_prescribed"]))

        rec.op(f"update_prescribed_k{k}", prescribed,
               checker(lambda sys_: case["X1_new"], lambda sys_: sys_))


class Verify(Workload):
    """eig_full + select_pairs of random reciprocal pairs, order 128."""

    name = "verify"
    N, SYSTEMS_PER_CLASS, CASES = 128, 2, 96
    CASES_PER_S = 5.0
    kinds = ("eig",)
    CALIBRATION = {"eig": "compute"}

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        pv, helpers = ctx.pv, ctx.helpers
        systems = []
        for _ in range(self.SYSTEMS_PER_CLASS):
            for code in CLASS_CODES:
                cls = pv.SymmetryClass.from_code(code)
                sys_ = helpers.random_system(cls, self.N, self.seed_int())
                w = oracle.eigenvalues(*_system_arrays(sys_), cls)
                systems.append((sys_, w, oracle.reciprocal_pairs(cls, w)))
        for i in range(self.CASES):
            sys_, w, pairs = systems[i % len(systems)]
            count = int(self.rng.integers(1, 5))
            chosen = self.rng.choice(len(pairs), count, replace=False)
            targets = [w[j] for p in chosen for j in pairs[int(p)]]
            self.cases.append(dict(sys=sys_, targets=targets))

    def run_case(self, case, rec):
        forward = self.ctx.pv.forward
        sys_, targets = case["sys"], case["targets"]
        cls = sys_.cls
        A1, A0 = _system_arrays(sys_)

        def op():
            eigs = forward.eig_full(sys_)
            return eigs, forward.select_pairs(eigs, targets)

        def check(out, defects):
            eigs, (X1, T1, X2, T2) = out
            breaks = []
            defects.add("residual", oracle.eigpair_residuals(
                A1, A0, cls, eigs.values, eigs.vectors))
            pd = oracle.pair_defects(cls, eigs.values, eigs.pairing)
            defects.add("pairing", pd)
            defects.add("symmetry", oracle.left_relation_defects(
                A1, A0, cls, eigs.values, eigs.vectors, eigs.pairing))
            if eigs.unmatched or (pd.size and pd.max() > oracle.PAIRING_GATE):
                breaks.append("pairing")
            sel = np.diag(T1)
            if len(sel) + T2.shape[0] != 2 * sys_.n or any(
                    np.min(np.abs(sel - t)) > 1e-3 * max(1.0, abs(t)) for t in targets):
                breaks.append("selection")
            return breaks

        rec.op("eig", op, check)


def read_system_file(path):
    """(cls, A1, A0) from a palinverse-v1 system file, parsed here."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)

    def mat(rows):
        a = np.array(rows, dtype=float)
        return a[..., 0] + 1j * a[..., 1]

    cls = SimpleNamespace(star=doc["class"]["star"], epsilon=int(doc["class"]["epsilon"]))
    return cls, mat(doc["A1"]), mat(doc["A0"])


def _fmt_complex(z):
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}i"


class Cli(Workload):
    """python -m palinverse.cli solve / update / eig --json, one subprocess
    per op, against the checkout's source tree."""

    name = "cli"
    N_EIG, REPS = 48, 4
    CASES_PER_S = 0.6
    kinds = ("cli_solve", "cli_update", "cli_eig")
    CALIBRATION = dict.fromkeys(kinds, "start")

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        pv, helpers, refs = ctx.pv, ctx.helpers, ctx.reference_problems
        self.work = ctx.workdir(self.name)
        per_class = {}
        for code in CLASS_CODES:
            cls = pv.SymmetryClass.from_code(code)
            X, T = refs.iep_fixture(cls)
            pair_file = os.path.join(self.work, f"pair-{code}.json")
            pv.save_pair(X, T, pair_file)
            usys, replace, new = refs.update_fixture(code)
            update_file = os.path.join(self.work, f"update-{code}.json")
            pv.save_system(usys, update_file)
            A1, A0 = _system_arrays(usys)
            w, V = oracle.eigen(A1, A0, cls)
            replaced = set(oracle.nearest_indices(w, replace))
            kept = [i for i in range(len(w)) if i not in replaced]
            eig_file = os.path.join(self.work, f"eig-{code}.json")
            esys = helpers.random_system(cls, self.N_EIG, self.seed_int())
            pv.save_system(esys, eig_file)
            per_class[code] = dict(
                cls=cls, pair=(X, T), pair_file=pair_file, update_file=update_file,
                replace=replace, new=new, kept=(V[:, kept], np.diag(w[kept])),
                eig_file=eig_file, eig_arrays=_system_arrays(esys))
        for _ in range(self.REPS):
            for code in CLASS_CODES:
                self.cases.append(dict(per_class[code], code=code,
                                       seed_solve=self.seed_int(),
                                       seed_update=self.seed_int()))

    def _call(self, *args):
        proc = subprocess.run(
            [sys.executable, "-m", "palinverse.cli", *args], cwd=self.work,
            env=self.ctx.child_env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            try:
                label = json.loads(proc.stderr.strip().splitlines()[-1])["error"]
            except (ValueError, IndexError, KeyError, TypeError):
                label = f"exit{proc.returncode}"
            raise OpFailure(label, proc.stderr.strip()[-300:])
        return proc.stdout

    def run_case(self, case, rec):
        code, cls = case["code"], case["cls"]
        solved = os.path.join(self.work, f"solved-{code}.json")
        updated = os.path.join(self.work, f"updated-{code}.json")

        def check_solve(_, defects):
            fcls, A1, A0 = read_system_file(solved)
            return _check_system(A1, A0, fcls, defects, oracle.CONSTRUCT_RESIDUAL_GATE,
                                 oracle.CONSTRUCT_SYMMETRY_GATE, pairs=case["pair"])

        rec.op("cli_solve", lambda: self._call(
            "solve", "--class", code, "--pairs", case["pair_file"],
            "--seed", str(case["seed_solve"]), "--out", solved), check_solve)

        def check_update(_, defects):
            fcls, A1, A0 = read_system_file(updated)
            return _check_system(A1, A0, fcls, defects, oracle.UPDATE_RESIDUAL_GATE,
                                 oracle.UPDATE_SYMMETRY_GATE, kept=case["kept"],
                                 new_values=case["new"])

        rec.op("cli_update", lambda: self._call(
            "update", "--system", case["update_file"],
            "--replace=" + ",".join(map(_fmt_complex, case["replace"])),
            "--with=" + ",".join(map(_fmt_complex, case["new"])),
            "--seed", str(case["seed_update"]), "--out", updated), check_update)

        A1, A0 = case["eig_arrays"]

        def check_eig(stdout, defects):
            doc = json.loads(stdout)
            values = np.array([complex(re, im) for re, im in doc["values"]])
            pairs = [tuple(p) for p in doc["pairing"]]
            defects.add("residual", [oracle.sigma_min_residual(A1, A0, cls, v)
                                     for v in values])
            pd = oracle.pair_defects(cls, values, pairs)
            defects.add("pairing", pd)
            if len(values) != 2 * A1.shape[0] or not doc["pairing_complete"] or \
                    (pd.size and pd.max() > oracle.PAIRING_GATE):
                return ["pairing"]
            return []

        rec.op("cli_eig", lambda: self._call(
            "eig", "--system", case["eig_file"], "--json"), check_eig)

    def probe(self, case, rec):
        fileio = self.ctx.pv.fileio
        out = os.path.join(self.work, f"roundtrip-{case['code']}.json")

        def roundtrip():
            fileio.load_pair(case["pair_file"])
            fileio.save_system(fileio.load_system(case["eig_file"]), out)

        rec.probe("fileio", roundtrip)

    def close(self):
        shutil.rmtree(self.work)


WORKLOADS = {w.name: w for w in (Construct, Update, Verify, Cli)}

