"""Release gate: one test per headline requirement of the package.

Each test prints a single PASS/FAIL verdict line (visible with pytest -s)
and exercises the requirement end to end on the benchmark scenario
(16 x 16 array, 4 users, SNR spread -6..14 dB, seed 3301) or on the
designated synthetic inputs.  Everything here goes through public entry
points; tolerances are the contractual ones.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import ltbf.cli as cli
from ltbf.beamspace import build_operator, from_beamspace, sparsity_ratio, to_beamspace
from ltbf.cg import CGConfig, cg_inverse
from ltbf.cholqr import cholesky_qr2
from ltbf.evaluation import (build_projectors, capacity, check_sinr_bound,
                             inverse_error, scenario_gammas, sinr_cdf)
from ltbf.linalg import FlopCounter, cholesky, gemm, trsm_right_upper_ct
from ltbf.precond import build_preconditioner, from_eigenpairs
from ltbf.randevd import randomized_evd
from ltbf.scenario import (ScenarioConfig, UserStats, assemble_q,
                           generate_scenario)

from helpers import (benchmark_q_system, conditioned_block, principal_angles,
                     random_complex, random_unitary_columns,
                     synthetic_hermitian, triple_loop_gemm)
from oracles import direct_inverse_oracle, full_evd_oracle


def fro_rel(delta, reference):
    return np.linalg.norm(delta) / np.linalg.norm(reference)


@contextmanager
def verdict(label):
    try:
        yield
    except Exception:
        print("%s: FAIL" % label)
        raise
    print("%s: PASS" % label)


@pytest.fixture(scope="module")
def bench():
    """Benchmark scenario with its exact-inverse evaluation baseline."""
    cfg = ScenarioConfig()
    stats, channels = generate_scenario(cfg)
    system = assemble_q(stats)
    xinv = direct_inverse_oracle(system.matrix)
    g_exact = scenario_gammas(stats, channels, xinv, cfg.noise_psd)
    return {"cfg": cfg, "stats": stats, "channels": channels,
            "system": system, "xinv": xinv, "g_exact": g_exact}


def _solve(system, precond, eps, max_iters=None):
    n = system.matrix.shape[0]
    budget = 10 * n if max_iters is None else max_iters
    return cg_inverse(system, preconditioner=precond,
                      config=CGConfig(max_iters=budget, epsilon=eps))


def test_criterion_01_kernel_oracles():
    with verdict("criterion 01 kernel oracles"):
        start = time.perf_counter()
        # product kernel against the scalar triple loop
        a = random_complex((9, 7), seed=11)
        b = random_complex((7, 5), seed=12)
        assert fro_rel(gemm(a, b) - triple_loop_gemm(a, b),
                       triple_loop_gemm(a, b)) <= 1e-12
        c = triple_loop_gemm(a.conj().T, a)
        assert fro_rel(gemm(a.conj().T, a) - c, c) <= 1e-12
        # Cholesky factor and triangular solve reconstruct their inputs
        blk = random_complex((12, 12), seed=13)
        w = blk @ blk.conj().T + 12.0 * np.eye(12)
        low = cholesky(w)
        assert fro_rel(low @ low.conj().T - w, w) <= 1e-12
        rhs = random_complex((5, 12), seed=14)
        z = trsm_right_upper_ct(rhs, low)
        assert fro_rel(z @ low.conj().T - rhs, rhs) <= 1e-12
        # dense eigensolver recovers a constructed spectrum and rebuilds
        spectrum = np.linspace(9.0, 1.0, 16)
        mat, _ = synthetic_hermitian(spectrum, seed=15)
        vals, vecs = full_evd_oracle(mat)
        assert np.max(np.abs(vals - spectrum)) <= 1e-9
        assert fro_rel((vecs * vals) @ vecs.conj().T - mat, mat) <= 1e-9
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(16)) <= 1e-12
        assert time.perf_counter() - start < 10.0


def test_criterion_02_orthogonalization_quality():
    with verdict("criterion 02 orthogonalization quality"):
        eye = np.eye(8)
        for seed in range(100):
            block = conditioned_block(256, 8, 1e4, seed=9000 + seed)
            q = cholesky_qr2(block)
            defect = np.linalg.norm(q.conj().T @ q - eye)
            assert defect <= 1e-10
            assert fro_rel(q @ (q.conj().T @ block) - block, block) <= 1e-10
            # the first-pass factor alone must be measurably worse
            first_factor = cholesky(gemm(block.conj().T, block))
            one_pass = trsm_right_upper_ct(block, first_factor)
            defect_one = np.linalg.norm(one_pass.conj().T @ one_pass - eye)
            assert defect < defect_one


def test_criterion_03_sketched_eigensolver_accuracy():
    with verdict("criterion 03 sketched eigensolver accuracy"):
        _, system = benchmark_q_system()
        ref_vals, ref_vecs = full_evd_oracle(system.matrix)
        res = randomized_evd(system.matrix, 8, 4, seed=3327)
        rel = np.max(np.abs(res.eigvals - ref_vals[:8]) / ref_vals[:8])
        assert rel <= 1e-2
        angles = principal_angles(ref_vecs[:, :8], res.eigvecs)
        assert angles.max() <= 1e-2

        def top_error(power_iters, seed):
            out = randomized_evd(system.matrix, 8, power_iters, seed=seed)
            return np.max(np.abs(out.eigvals - ref_vals[:8]) / ref_vals[:8])

        for seed in range(3327, 3347):
            assert top_error(4, seed) <= top_error(1, seed)


def test_criterion_04_low_rank_inverse_exactness():
    with verdict("criterion 04 low-rank inverse exactness"):
        n, rank = 64, 8
        vals = np.linspace(9.0, 2.0, rank)
        basis = random_unitary_columns(n, rank, seed=4321)
        surrogate = np.eye(n, dtype=complex) \
            + (basis * (vals - 1.0)) @ basis.conj().T
        precond = from_eigenpairs(basis, vals)
        assert np.linalg.norm(precond.apply(surrogate) - np.eye(n)) <= 1e-9


def test_criterion_05_eigenvalue_clustering(bench):
    with verdict("criterion 05 eigenvalue clustering"):
        cfg, system = bench["cfg"], bench["system"]
        n = cfg.n_antennas
        vals, _ = full_evd_oracle(system.matrix)
        assert vals[-1] >= 1.0 - 1e-9
        edge = 1.0 + 0.05 * (vals[0] - 1.0)
        clustered = int(np.sum((vals >= 1.0 - 1e-9) & (vals <= edge)))
        # the loading term has rank at most users x paths x streams
        spread_rank = cfg.n_ue * cfg.paths_per_user * cfg.n_streams
        assert clustered >= n - spread_rank
        # conditioning grows monotonically with uniform power scaling
        def kappa(scale):
            scaled = [type(st)(covariance=st.covariance, alpha=scale * st.alpha,
                               symbol_energy=scale * st.symbol_energy)
                      for st in bench["stats"]]
            ev = np.linalg.eigvalsh(assemble_q(scaled).matrix)
            return ev[-1] / ev[0]
        base = vals[0] / vals[-1]
        k10, k100 = kappa(10.0), kappa(100.0)
        assert base < k10 < k100


def test_criterion_06_iteration_reduction():
    with verdict("criterion 06 iteration reduction"):
        start = time.perf_counter()
        wins = {"joint": 0, "precond_alone": 0, "beamspace_alone": 0}
        for seed in range(3301, 3321):
            cfg = ScenarioConfig(seed=seed)
            stats, _ = generate_scenario(cfg)
            sys_ant = assemble_q(stats)
            operator = build_operator(cfg.side)
            sys_beam = to_beamspace(operator, sys_ant, method="fft")
            pre_ant = build_preconditioner(sys_ant, rank=8, power_iters=4,
                                           seed=seed)
            pre_beam = build_preconditioner(sys_beam, rank=8, power_iters=4,
                                            seed=seed)
            plain = _solve(sys_ant, None, 1e-3).iterations
            if _solve(sys_beam, pre_beam, 1e-3).iterations <= plain - 2:
                wins["joint"] += 1
            if _solve(sys_ant, pre_ant, 1e-3).iterations <= plain - 1:
                wins["precond_alone"] += 1
            if _solve(sys_beam, None, 1e-3).iterations <= plain - 1:
                wins["beamspace_alone"] += 1
        assert all(count >= 16 for count in wins.values()), wins
        assert time.perf_counter() - start < 300.0


def test_criterion_07_capacity_and_cdf_fidelity(bench):
    with verdict("criterion 07 capacity and cdf fidelity"):
        cfg, stats, channels = bench["cfg"], bench["stats"], bench["channels"]
        sys_ant = bench["system"]
        operator = build_operator(cfg.side)
        sys_beam = to_beamspace(operator, sys_ant, method="fft")
        pre_ant = build_preconditioner(sys_ant, rank=8, power_iters=4,
                                       seed=cfg.seed)
        pre_beam = build_preconditioner(sys_beam, rank=8, power_iters=4,
                                        seed=cfg.seed)
        back = lambda xb: from_beamspace(operator, xb, method="fft")
        cap_exact = capacity(bench["g_exact"])
        combos = [(sys_ant, None, None), (sys_ant, pre_ant, None),
                  (sys_beam, None, back), (sys_beam, pre_beam, back)]
        for system, precond, transform in combos:
            state = _solve(system, precond, 1e-6)
            x = transform(state.x) if transform else state.x
            cap = capacity(scenario_gammas(stats, channels, x,
                                           cfg.noise_psd))
            assert abs(cap - cap_exact) <= 0.01 * cap_exact
        # pooled SINR quantiles of the exact front end never drop below a
        # truncated preconditioned solve, judged at 0.1 dB plotting width
        db_exact, _ = sinr_cdf(bench["g_exact"])
        for system, precond, transform in combos[1::2]:
            for budget in (2, 3):
                state = _solve(system, precond, 1e-16, max_iters=budget)
                x = transform(state.x) if transform else state.x
                gam = scenario_gammas(stats, channels, x, cfg.noise_psd)
                db_trunc, _ = sinr_cdf(gam)
                assert np.max(db_trunc - db_exact) <= 0.1


def test_criterion_08_degradation_bound():
    with verdict("criterion 08 degradation bound"):
        for seed in range(3301, 3321):
            cfg = ScenarioConfig(seed=seed)
            stats, channels = generate_scenario(cfg)
            system = assemble_q(stats)
            projectors = build_projectors(stats, 4)
            xinv = direct_inverse_oracle(system.matrix)
            g_exact = scenario_gammas(stats, channels, xinv, cfg.noise_psd,
                                      projectors=projectors)
            # one run of at most 40 iterations; for each target, the first
            # iterate whose spectral residual reaches it
            targets = (0.1, 0.01)
            first = {}

            def on_iteration(iterations, x, residual):
                _, spec = inverse_error(system, x)
                for target in targets:
                    if target not in first and spec <= target:
                        first[target] = (x, spec)
                return len(first) == len(targets)

            cg_inverse(system, config=CGConfig(max_iters=40, epsilon=1e-16),
                       on_iteration=on_iteration)
            for target in targets:
                assert target in first, (seed, target)
                x, spec = first[target]
                gam = scenario_gammas(stats, channels, x, cfg.noise_psd,
                                      projectors=projectors)
                outcome = check_sinr_bound(g_exact, gam, spec)
                assert outcome.fraction_ok == 1.0, (seed, target)


def test_criterion_09_beamspace_structure(bench):
    with verdict("criterion 09 beamspace structure"):
        cfg, sys_ant = bench["cfg"], bench["system"]
        n = cfg.n_antennas
        operator = build_operator(cfg.side)
        unitarity = np.linalg.norm(
            operator.f @ operator.f.conj().T - np.eye(n))
        assert unitarity <= 1e-11 * np.sqrt(n)
        sys_beam = to_beamspace(operator, sys_ant, method="fft")
        vals_ant = np.linalg.eigvalsh(sys_ant.matrix)
        vals_beam = np.linalg.eigvalsh(sys_beam.matrix)
        assert np.max(np.abs(vals_ant - vals_beam)) <= 1e-9
        gap = sparsity_ratio(sys_beam.matrix, threshold=0.005) \
            - sparsity_ratio(sys_ant.matrix, threshold=0.005)
        assert gap >= 0.3


def test_criterion_10_complexity_counters(bench):
    with verdict("criterion 10 complexity counters"):
        n, rank, p = 256, 8, 4
        block = random_complex((n, rank), seed=10)
        counter = FlopCounter()
        cholesky_qr2(block, counter=counter)
        # two Gram products plus two triangular solves
        qrc_model = 2 * n * rank * rank + n * rank * (rank + 1)
        assert abs(counter.mults / qrc_model - 1.0) <= 0.15

        counter = FlopCounter()
        randomized_evd(bench["system"].matrix, rank, p, seed=3301,
                       counter=counter)
        evd_model = (p + 1) * n * n * rank + p * qrc_model + 2 * n * rank * rank
        assert abs(counter.mults / evd_model - 1.0) <= 0.15

        counter = FlopCounter()
        precond = build_preconditioner(bench["system"], rank=rank,
                                       power_iters=p, seed=3301)
        state = cg_inverse(bench["system"], preconditioner=precond,
                           config=CGConfig(max_iters=10 * n, epsilon=1e-3),
                           counter=counter)
        # two applies, to I and to Q, before iteration 1, then one after
        # every iteration but the last
        apply_model = (state.iterations + 1) * 2 * rank * n * n
        measured = counter.kernel_mults("precond_apply")
        assert abs(measured / apply_model - 1.0) <= 0.15


def test_criterion_11_sweep_determinism(tmp_path):
    with verdict("criterion 11 sweep determinism"):
        config_path = tmp_path / "scene.cfg"
        config_path.write_text("side = 8\nsubcarriers = 64\nseed = 3301\n")
        scenario_path = str(tmp_path / "scene.bslv")
        assert cli.run(["gen", str(config_path), scenario_path]) == 0
        dirs = [str(tmp_path / name) for name in ("run_a", "run_b")]
        for out_dir in dirs:
            assert cli.run(["sweep", scenario_path, "--iters", "2,4,6",
                            "--out-dir", out_dir]) == 0
        names = sorted(os.listdir(dirs[0]))
        assert names == sorted(os.listdir(dirs[1])) and names
        for name in names:
            first = open(os.path.join(dirs[0], name), "rb").read()
            second = open(os.path.join(dirs[1], name), "rb").read()
            assert first == second, name
