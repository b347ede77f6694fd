"""Shared reference constructions for the test suite.

Everything here is deliberately independent of the package's own kernels:
the matrix product is three explicit loops, orthonormalization is modified
Gram-Schmidt, and subspace distances go through the cross-Gram singular
values.  Tests compare package output against these, never the other way
around.
"""

import numpy as np

from ltbf.cg import CGConfig, cg_inverse
from ltbf.evaluation import capacity, scenario_gammas
from ltbf.scenario import ScenarioConfig, assemble_q, generate_scenario


def triple_loop_gemm(a, b):
    """Textbook three-loop complex matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.complex128)
    for i in range(m):
        for j in range(n):
            acc = 0.0 + 0.0j
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def mgs_columns(a):
    """Orthonormal basis of the columns of a by modified Gram-Schmidt."""
    q = np.array(a, dtype=np.complex128)
    n, k = q.shape
    for j in range(k):
        for i in range(j):
            q[:, j] -= (q[:, i].conj() @ q[:, j]) * q[:, i]
        nrm = np.linalg.norm(q[:, j])
        assert nrm > 1e-300, "mgs input is rank deficient"
        q[:, j] /= nrm
    return q


def principal_angles(u, v):
    """Principal angles in radians between the column spans of u and v.

    Uses the sine formulation (singular values of the residual after
    projecting one basis onto the other), which keeps full precision for
    tiny angles where the cosine route saturates at sqrt(eps).
    """
    bu = mgs_columns(u)
    bv = mgs_columns(v)
    residual = bv - bu @ (bu.conj().T @ bv)
    s = np.linalg.svd(residual, compute_uv=False)
    return np.sort(np.arcsin(np.clip(s, 0.0, 1.0)))


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unitary_columns(n, k, seed):
    """(n, k) block with orthonormal columns from a seeded Gaussian draw."""
    return mgs_columns(random_complex((n, k), seed))


def synthetic_hermitian(eigvals, seed):
    """Hermitian matrix with a prescribed spectrum and random eigenbasis."""
    vals = np.asarray(eigvals, dtype=float)
    n = vals.size
    u = random_unitary_columns(n, n, seed)
    return (u * vals) @ u.conj().T, u


def conditioned_block(n, k, cond, seed):
    """(n, k) block with log-spaced singular values and condition `cond`."""
    u = random_unitary_columns(n, k, seed)
    v = random_unitary_columns(k, k, seed + 7919)
    s = np.logspace(0.0, -np.log10(cond), k)
    return (u * s) @ v.conj().T


def spectral_norm(a):
    return float(np.linalg.norm(a, 2))


def benchmark_q_config():
    """Scenario config of the fixed N=64 low-rank benchmark matrix.

    Four users at one SNR with two paths each: exactly eight dominant
    eigenpairs over the unit cluster, with a wide gap at rank eight
    (lambda_9 / lambda_8 is about 0.15), which is what sketch-accuracy
    tests need.
    """
    return ScenarioConfig(side=8, paths_per_user=2, snr_db_range=(14.0, 14.0),
                          seed=3327)


def benchmark_q_system():
    cfg = benchmark_q_config()
    stats, _ = generate_scenario(cfg)
    return cfg, assemble_q(stats)


def small_scenario_config(**overrides):
    """Fast scenario for unit tests: N=16, 16 subcarriers."""
    base = dict(side=4, n_ue=2, n_streams=1, paths_per_user=2,
                snr_db_range=(0.0, 10.0), subcarriers=16, seed=421)
    base.update(overrides)
    return ScenarioConfig(**base)


def restart_capacity_oracle(system, stats, channels, noise_psd, checkpoints,
                            preconditioner=None, rank=4, transform=None):
    """Capacity rows by one fresh solver run per budget.

    The route capacity_vs_iterations took before it consumed a single run
    through the iteration hook; its rows must match this one exactly.
    """
    rows = []
    for budget in checkpoints:
        cfg = CGConfig(max_iters=int(budget), epsilon=1e-16)
        state = cg_inverse(system, preconditioner=preconditioner, config=cfg)
        x = transform(state.x) if transform is not None else state.x
        gam = scenario_gammas(stats, channels, x, noise_psd, rank=rank)
        residual = state.residual_history[-1] if state.residual_history else float("nan")
        rows.append({"requested": int(budget),
                     "iterations": state.iterations,
                     "residual": float(residual),
                     "capacity": capacity(gam)})
    return rows
