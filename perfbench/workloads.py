"""The benchmark's workloads: inputs, the timed op, and its checks.

Each workload makes its inputs from the run seed in build_inputs(), runs
one op per op() call through ltbf's public entry points, and checks the
op's output in check(), independently of what the program prints.  The
checks run outside the timed region and raise CheckFailed.

invert-n1024  `ltbf invert --domain beamspace --precond lowrank --eps 1e-6`
              in-process on side-32 scenario files: the paper's full
              pipeline at scale, dominated by CG, the preconditioner apply
              and the gemms, with an 84 MB scenario load inside the op.
sweep-n256    the default `ltbf sweep` on a side-16 scenario: dominated by
              evaluation (projectors rebuilt per call, CG restarted per
              budget, the Python-loop oracle inverse).
drops-n64     a Monte-Carlo drop through the library API at side 8: many
              small interpreter-bound calls, where the Python-loop sketch
              (Jacobi, Cholesky, trsm) and per-call overhead show.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np

import ltbf.cli
from ltbf import beamspace, cg, evaluation, precond, scenario

EPS = 1e-6
# capacity of a converged inverse against np.linalg.inv; observed gaps at
# eps 1e-6 are below 1e-7, a wrong inverse misses by percent
CAPACITY_RTOL = 1e-4
SWEEP_CSVS = ("bound.csv", "capacity.csv", "cdf.csv", "run_meta.csv",
              "sparsity.csv")


class CheckFailed(Exception):
    """An op's output failed an independent correctness check."""


def numpy_q(stats):
    """Q = I + sum_i alpha_i Rbar_i, assembled here rather than by ltbf."""
    n = stats[0].covariance.shape[0]
    q = np.eye(n, dtype=np.complex128)
    for st in stats:
        q += st.alpha * st.covariance
    return 0.5 * (q + q.conj().T)


def scaled_residual(q, x):
    """||Q X - I||_F / sqrt(N), the quantity the solver stops on."""
    n = q.shape[0]
    return float(np.linalg.norm(q @ x - np.eye(n)) / np.sqrt(n))


def exact_capacity(stats, channels, q, noise_psd):
    gam = evaluation.scenario_gammas(stats, channels, np.linalg.inv(q),
                                     noise_psd)
    return evaluation.capacity(gam)


def _check_capacity(got, want):
    if not abs(got - want) <= CAPACITY_RTOL * abs(want):
        raise CheckFailed("capacity %r differs from np.linalg.inv capacity %r"
                          % (got, want))


def _run_cli(argv):
    """ltbf.cli.run in-process with its stdout captured: (code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ltbf.cli.run(argv)
    return code, out.getvalue()


class Workload:
    """Inputs in `workdir`, one op per call, checks outside the timing."""

    name = ""
    warmup_ops = 1

    def __init__(self, workdir, seed, tiny):
        self.workdir = workdir
        self.seed = seed

    def build_inputs(self):
        """Make the inputs from the seed; returns its seconds of set-up."""
        raise NotImplementedError

    def op(self, i):
        """Run op number i; the return value goes to check()."""
        raise NotImplementedError

    def check(self, result):
        raise NotImplementedError

    def antenna_q(self, result):
        """The antenna-domain Q of the op, for the np.linalg.inv row."""
        raise NotImplementedError

    def finish(self):
        """Run-level checks after the timed loop; returns failure texts."""
        return []

    def printed_mults(self, result):
        """The complex_mults the program printed for the op, if it prints one."""
        return None


class InvertWorkload(Workload):
    name = "invert-n1024"
    files = 3

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.side = 4 if tiny else 32
        self.paths = [os.path.join(workdir, "scen%d.bslv" % k)
                      for k in range(self.files)]
        self.out = os.path.join(workdir, "inverse.bslv")
        self.q = []

    def build_inputs(self):
        seconds = 0.0
        self.q = []
        for k, path in enumerate(self.paths):
            start = perf_counter()
            cfg = scenario.ScenarioConfig(side=self.side, seed=self.seed + k)
            stats, channels = scenario.generate_scenario(cfg)
            scenario.save_scenario(path, cfg, stats, channels)
            seconds += perf_counter() - start
            self.q.append(numpy_q(stats))
        return seconds

    def op(self, i):
        k = i % self.files
        code, text = _run_cli(["invert", self.paths[k], "--domain", "beamspace",
                               "--precond", "lowrank", "--eps", repr(EPS),
                               "--out", self.out])
        return k, code, text

    def check(self, result):
        k, code, _ = result
        if code != 0:
            raise CheckFailed("ltbf invert exited with %d" % code)
        res = scaled_residual(self.q[k], scenario.load_matrix(self.out))
        if not res < EPS:
            raise CheckFailed("true residual %r of the saved inverse is not "
                              "below %r" % (res, EPS))

    def antenna_q(self, result):
        return self.q[result[0]]

    def printed_mults(self, result):
        printed = dict(line.split("=", 1) for line in result[2].splitlines()
                       if "=" in line)
        return int(printed["complex_mults"]) if "complex_mults" in printed else None


class SweepWorkload(Workload):
    name = "sweep-n256"

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.side = 4 if tiny else 16
        self.path = os.path.join(workdir, "scen.bslv")
        self.out_dir = os.path.join(workdir, "sweep")
        self.reference = None
        self.exact = None
        self.q = None

    def build_inputs(self):
        start = perf_counter()
        cfg = scenario.ScenarioConfig(side=self.side, seed=self.seed)
        stats, channels = scenario.generate_scenario(cfg)
        scenario.save_scenario(self.path, cfg, stats, channels)
        seconds = perf_counter() - start
        self.q = numpy_q(stats)
        self.exact = exact_capacity(stats, channels, self.q, cfg.noise_psd)
        return seconds

    def op(self, i):
        return _run_cli(["sweep", self.path, "--out-dir", self.out_dir])

    def _tables(self, out_dir):
        tables = {}
        for name in SWEEP_CSVS:
            with open(os.path.join(out_dir, name), "rb") as fh:
                tables[name] = fh.read()
        return tables

    def _compare(self, tables, what):
        if self.reference is None:
            self.reference = tables
            return
        for name in SWEEP_CSVS:
            if tables[name] != self.reference[name]:
                raise CheckFailed("%s of %s differs from the first sweep of "
                                  "this run" % (name, what))

    def check(self, result):
        code, _ = result
        if code != 0:
            raise CheckFailed("ltbf sweep exited with %d" % code)
        tables = self._tables(self.out_dir)
        shutil.rmtree(self.out_dir)
        meta = list(csv.DictReader(io.StringIO(tables["run_meta.csv"].decode())))
        bound = list(csv.DictReader(io.StringIO(tables["bound.csv"].decode())))
        if not meta or not bound:
            raise CheckFailed("run_meta.csv or bound.csv has no rows")
        for row in meta:
            if not float(row["residual_fro"]) < EPS:
                raise CheckFailed("%s: residual %s is not below %r"
                                  % (row["config_id"], row["residual_fro"], EPS))
            _check_capacity(float(row["capacity"]), self.exact)
        violations = sum(float(row["margin"]) < 0.0 for row in bound)
        if violations:
            raise CheckFailed("bound.csv has %d violations" % violations)
        self._compare(tables, "a sweep")

    def antenna_q(self, result):
        return self.q

    def finish(self):
        """The in-process sweeps must match a direct `ltbf sweep` call."""
        if self.reference is None:
            return ["no sweep passed its checks"]
        direct = os.path.join(self.workdir, "direct")
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(ltbf.cli.__file__))
        env["PYTHONPATH"] = src
        try:
            proc = subprocess.run([sys.executable, "-m", "ltbf.cli", "sweep",
                                   self.path, "--out-dir", direct],
                                  env=env, capture_output=True, timeout=100)
        except subprocess.TimeoutExpired:
            return ["direct ltbf sweep did not finish in 100 s"]
        if proc.returncode != 0:
            return ["direct ltbf sweep exited with %d" % proc.returncode]
        try:
            self._compare(self._tables(direct), "the direct ltbf sweep")
        except CheckFailed as err:
            return [str(err)]
        return []


class DropsWorkload(Workload):
    name = "drops-n64"
    warmup_ops = 3
    n_ue = 8
    subcarriers = 64
    rank = 16
    power_iters = 4

    def __init__(self, workdir, seed, tiny):
        super().__init__(workdir, seed, tiny)
        self.side = 4 if tiny else 8
        self.operator = None

    def build_inputs(self):
        start = perf_counter()
        self.operator = beamspace.build_operator(self.side)
        return perf_counter() - start

    def op(self, i):
        cfg = scenario.ScenarioConfig(side=self.side, n_ue=self.n_ue,
                                      subcarriers=self.subcarriers,
                                      seed=self.seed + i)
        stats, channels = scenario.generate_scenario(cfg)
        system = scenario.assemble_q(stats)
        system_b = beamspace.to_beamspace(self.operator, system, method="fft")
        pre = precond.build_preconditioner(system_b, rank=self.rank,
                                           power_iters=self.power_iters,
                                           seed=cfg.seed)
        n = cfg.n_antennas
        state = cg.cg_inverse(system_b, preconditioner=pre,
                              config=cg.CGConfig(max_iters=10 * n, epsilon=EPS))
        x = beamspace.from_beamspace(self.operator, state.x, method="fft")
        gam = evaluation.scenario_gammas(stats, channels, x, cfg.noise_psd)
        return cfg, stats, channels, x, evaluation.capacity(gam)

    def check(self, result):
        cfg, stats, channels, x, cap = result
        q = numpy_q(stats)
        res = scaled_residual(q, x)
        if not res < EPS:
            raise CheckFailed("drop seed %d: true residual %r is not below %r"
                              % (cfg.seed, res, EPS))
        _check_capacity(cap, exact_capacity(stats, channels, q, cfg.noise_psd))

    def antenna_q(self, result):
        return numpy_q(result[1])


WORKLOADS = {cls.name: cls for cls in (InvertWorkload, SweepWorkload,
                                       DropsWorkload)}
