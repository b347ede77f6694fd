"""Shared reference constructions for the test suite.

Everything here is deliberately independent of the package's own kernels:
the matrix product is three explicit loops, orthonormalization is modified
Gram-Schmidt, and subspace distances go through the cross-Gram singular
values.  The receiver references (full-dimension MMSE baseline, explicit
beamformed quotient, per-user einsum SINRs) and the dense matrices behind
the implicit preconditioner live here too, since the package itself only
runs the batched and implicit paths.  Tests compare package output against
these, never the other way around.
"""

import csv
import os
import struct
import tempfile
import zlib

import numpy as np
from hypothesis import strategies as st

from ltbf.beamspace import from_beamspace
from ltbf.cg import CGConfig, cg_inverse, residual_norm
from ltbf.evaluation import build_projectors, capacity, scenario_gammas
from ltbf.scenario import (ScenarioConfig, assemble_q, generate_scenario,
                           save_matrix, save_scenario)


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
    return ScenarioConfig(side=8, paths_per_user=2, snr_db_low=14.0,
                          snr_db_high=14.0, seed=3327)


def benchmark_q_system():
    cfg = benchmark_q_config()
    stats, _ = generate_scenario(cfg)
    return cfg, assemble_q(stats)


def small_scenario_config(**overrides):
    """Fast scenario for unit tests: N=16, 16 subcarriers."""
    base = dict(side=4, n_ue=2, n_streams=1, paths_per_user=2,
                snr_db_low=0.0, snr_db_high=10.0, subcarriers=16, seed=421)
    base.update(overrides)
    return ScenarioConfig(**base)


def with_crc(blob):
    """A BSLV file's bytes with the trailing CRC recomputed over its payload."""
    payload = bytes(blob[8:-4])
    return (bytes(blob[:8]) + payload
            + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _saved_bytes(save, *args):
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "saved.bslv")
        save(path, *args)
        with open(path, "rb") as fh:
            return fh.read()


def parse_file(parse, data):
    """parse(path) of a file holding data, bytes or text written as UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "parsed.cfg")
        with open(path, "wb") as fh:
            fh.write(data)
        return parse(path)


def config_text():
    """Strategy for config-file bytes: raw bytes, or lines that join
    scenario or sweep keys, or arbitrary text, around '=' separators."""
    line = st.builds(
        lambda key, sep, value: key + sep + value,
        st.one_of(st.sampled_from(["side", "n_ue", "snr_db_low", "seed",
                                   "noise_psd", "name", "q"]), st.text()),
        st.sampled_from(["=", " = ", " ", "==", "#", " domain="]),
        st.one_of(st.sampled_from(["0", "-1", "nan", "inf", "1e400", "4",
                                   "lowrank", "beamspace", "p=1"]),
                  st.text()))
    return st.one_of(st.binary(max_size=200),
                     st.lists(line, max_size=6).map("\n".join))


def scenario_bytes(cfg, stats, channels):
    """The bytes save_scenario writes for these objects."""
    return _saved_bytes(save_scenario, cfg, stats, channels)


def matrix_bytes(a):
    """The bytes save_matrix writes for this matrix."""
    return _saved_bytes(save_matrix, a)


def truncated(blob, cut):
    """A BSLV file's bytes with the payload cut to its first `cut` bytes and
    the CRC recomputed over what is left."""
    return with_crc(bytes(blob[:8 + cut]) + bytes(4))


def _double_trace(st):
    st.covariance = 2.0 * st.covariance


def _skew(st):
    st.covariance = st.covariance.copy()
    st.covariance[0, 1] += 1.0


def _zero_alpha(st):
    st.alpha = 0.0


def _nan_covariance(st):
    st.covariance = np.full_like(st.covariance, np.nan)


def _overflowing_alpha(st):
    # Q's diagonal reaches 1.7e308, which overflows when Q is Hermitized
    st.alpha = 1.7e308


def _nan_energy(st):
    st.symbol_energy = float("nan")


def _negative_energy(st):
    st.symbol_energy = -1.0


# statistics a CRC-valid scenario file can carry that assemble_q rejects
INVALID_STATISTICS = {
    "trace-2n": _double_trace,
    "skewed-covariance": _skew,
    "alpha-0": _zero_alpha,
    "nan-covariance": _nan_covariance,
    "q-overflow": _overflowing_alpha,
    "nan-symbol-energy": _nan_energy,
    "negative-symbol-energy": _negative_energy,
}


def invalid_statistics_bytes(name, cfg, stats, channels):
    """A CRC-valid scenario file whose first user carries the named edit."""
    stats = [type(st)(covariance=st.covariance, alpha=st.alpha,
                      symbol_energy=st.symbol_energy) for st in stats]
    INVALID_STATISTICS[name](stats[0])
    return scenario_bytes(cfg, stats, channels)


def oversized_path_block_bytes():
    """A 96-byte CRC-valid scenario file that claims 2^31 paths per user.

    n_streams * paths_per_user passes the config check (it does not exceed
    subcarriers), but the payload ends before the first 36-byte path
    record: a 1 x 1 array, one user, its alpha, energy and covariance.
    """
    payload = (struct.pack("<5I", 1, 1, 1, 2 ** 31, 2 ** 31)
               + struct.pack("<3d", 0.0, 0.0, 1.0) + struct.pack("<Q", 0)
               + struct.pack("<2d", 1.0, 1.0)
               + np.array([1.0], dtype="<c16").tobytes())
    return with_crc(b"BSLV" + struct.pack("<HH", 1, 1) + payload + bytes(4))


def accuracy_stops(system, preconditioner=None, epsilon=0.0,
                   max_iters=None):
    """Where a solver run attains its accuracy: (level_at, stagnated_at).

    Forms the true residual at every iteration of a run at epsilon and
    applies the stop rule documented in ltbf.cg to it.  The solver starts
    its checks on its recursive estimate, which the hook no longer sees
    once the true residual takes its place; since every iteration from the
    first check on is a check, the checks are the trailing iterations whose
    recorded residual is the true one.  No earlier recorded residual may
    lie below epsilon or the level 8 u ||Q||_F ||X_k||_F / N, u = 2^-53.
    level_at is the first check whose true residual is below the level;
    stagnated_at is the first check that ends three in a row, each not
    below half the smallest true residual of all checks before it.  Either
    is None when the run ends first; the run goes to max_iters (10 N when
    None) unless the solver stops it.
    """
    n = system.matrix.shape[0]
    scale = 8.0 * 2.0 ** -53 * np.linalg.norm(system.matrix) / n
    seen = []  # (recorded, true, level) per iteration

    def on_iteration(k, x, recorded):
        seen.append((recorded, residual_norm(system, x),
                     scale * np.linalg.norm(x)))

    cfg = CGConfig(max_iters=10 * n if max_iters is None else max_iters,
                   epsilon=epsilon)
    if cfg.max_iters:
        cg_inverse(system, preconditioner=preconditioner, config=cfg,
                   on_iteration=on_iteration)
    first = len(seen)
    while first and seen[first - 1][0] == seen[first - 1][1]:
        first -= 1
    for k, (recorded, _, level) in enumerate(seen[:first], start=1):
        assert recorded >= epsilon and recorded >= level, "unchecked %d" % k
    checks = [true for _, true, _ in seen[first:]]
    level_at = next((first + i for i, (_, true, level)
                     in enumerate(seen[first:], start=1) if true < level),
                    None)
    stagnated_at = next((first + i + 1 for i in range(3, len(checks))
                         if all(checks[j] >= 0.5 * min(checks[:j])
                                for j in range(i - 2, i + 1))), None)
    return level_at, stagnated_at


def capacity_scorer(stats, channels, noise_psd, transform=None):
    """score(x) for capacity_vs_iterations: the capacity of x at rank-4
    projectors, after transform maps x back to the antenna domain."""
    projectors = build_projectors(stats, 4)
    back = transform if transform is not None else (lambda x: x)
    return lambda x: capacity(scenario_gammas(stats, channels, back(x),
                                              noise_psd, projectors=projectors))


def restart_capacity_oracle(system, stats, channels, noise_psd, checkpoints,
                            preconditioner=None, rank=4, transform=None):
    """Capacity rows by one fresh solver run per budget.

    The attained iteration k comes from accuracy_stops, the earlier of its
    two stops; each budget then gets a fresh run at epsilon 0 with
    max_iters=min(budget, k).  capacity_vs_iterations, which serves every
    budget from one run through the iteration hook, must match it exactly.
    """
    budgets = [int(b) for b in checkpoints]
    stops = accuracy_stops(system, preconditioner=preconditioner,
                           max_iters=max(budgets, default=0))
    attained = min((k for k in stops if k is not None), default=None)
    rows = []
    for budget in budgets:
        iterations = budget if attained is None else min(budget, attained)
        cfg = CGConfig(max_iters=iterations, epsilon=0.0)
        state = cg_inverse(system, preconditioner=preconditioner, config=cfg)
        x = transform(state.x) if transform is not None else state.x
        gam = scenario_gammas(stats, channels, x, noise_psd,
                              projectors=build_projectors(stats, rank))
        rows.append({"requested": budget,
                     "iterations": state.iterations,
                     "capacity": capacity(gam)})
    return rows


def stagnating_case():
    """A scenario whose solver run attains its accuracy only by stagnation.

    Plain CG on a side-8 array with 8 users of 4 paths each, spread over
    0 to 90 dB SNR: the loading spans nine decades, and the true residual
    flattens near 1e-7, above the level of accuracy_stops at every check
    until the run stagnates.  Returns (cfg, stats, channels, system,
    stagnated_at) for the first seed from 421 where the level test never
    fires.
    """
    for seed in range(421, 441):
        cfg = small_scenario_config(side=8, n_ue=8, paths_per_user=4,
                                    snr_db_low=0.0, snr_db_high=90.0,
                                    subcarriers=8, seed=seed)
        stats, channels = generate_scenario(cfg)
        system = assemble_q(stats)
        level_at, stagnated_at = accuracy_stops(system)
        if level_at is None and stagnated_at is not None:
            return cfg, stats, channels, system, stagnated_at
    raise AssertionError("every seed attains the level")


def lagging_estimate_case(system):
    """An iteration of plain CG whose recursive residual estimate lags.

    Returns (k, epsilon): at iteration k the true residual is below every
    earlier residual, true or estimated, and below epsilon, while epsilon is
    the estimate at k.  So a complex128 run at that epsilon does not stop
    at k, and k is the first iterate whose true residual is below epsilon.
    """
    n = system.matrix.shape[0]
    trues = []
    state = cg_inverse(system, config=CGConfig(max_iters=10 * n, epsilon=1e-300),
                       on_iteration=lambda k, x, r: trues.append(residual_norm(system, x)))
    estimates = state.residual_history[:-1]
    for k, (true, estimate) in enumerate(zip(trues, estimates)):
        if true < estimate <= min(trues[:k] + estimates[:k], default=1.0):
            return k + 1, estimate
    raise AssertionError("the estimate never lags the true residual")


class DtypeLog:
    """A preconditioner that notes the dtype of every block it is given.

    cg_inverse applies it to I and to Q before the first iteration, then
    after every iteration that does not stop the run.  Without an inner
    preconditioner it returns the block itself, as plain CG uses it.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.dtypes = []

    def apply(self, block, counter=None):
        self.dtypes.append(block.dtype)
        if self.inner is None:
            return block
        return self.inner.apply(block, counter=counter)


def _stacked_channels(channels):
    # (subcarriers, N, n_ue * n_streams), user-major column order
    return np.concatenate([ch.h for ch in channels], axis=2)


def mmse_baseline_sinr(stats, channels, noise_psd):
    """Stream SINR of the unreduced MMSE receiver, the upper reference.

    Works on the full N-dimensional observation with exact statistics, so
    it upper-bounds the projected receiver for every stream.
    """
    n_ue = len(stats)
    n_streams = channels[0].h.shape[2]
    k_sc, n, _ = channels[0].h.shape
    big_h = _stacked_channels(channels)
    energies = np.repeat([st.symbol_energy for st in stats], n_streams)
    t_mat = noise_psd * np.eye(n, dtype=np.complex128)[None, :, :] + np.einsum(
        "knm,m,kpm->knp", big_h, energies, big_h.conj())
    sol = np.linalg.solve(t_mat, big_h)
    u = np.real(np.einsum("knm,knm->km", big_h.conj(), sol))
    eu = np.clip(energies[None, :] * u, 0.0, 1.0 - 1e-15)
    gam = eu / (1.0 - eu)
    return np.ascontiguousarray(gam.reshape(k_sc, n_ue, n_streams).transpose(1, 0, 2))


def post_beamforming_sinr(g_target, g_others, energy_target, energies_others,
                          noise_cov):
    """Single-element SINR from the explicit beamformed quotient.

    Forms the MMSE beamformer for one stream and evaluates signal power
    over interference-plus-noise power term by term.  Independent of the
    solve-based identity used in scenario_gammas, hence usable to verify
    it.
    """
    g_target = np.asarray(g_target).reshape(-1)
    g_others = np.asarray(g_others)
    t_mat = np.asarray(noise_cov, dtype=np.complex128).copy()
    t_mat += energy_target * np.outer(g_target, g_target.conj())
    for e_j, g_j in zip(energies_others, g_others.T):
        t_mat += e_j * np.outer(g_j, g_j.conj())
    w = np.linalg.solve(t_mat, g_target)
    signal = energy_target * np.abs(w.conj() @ g_target) ** 2
    interference = float(np.real(w.conj() @ noise_cov @ w))
    for e_j, g_j in zip(energies_others, g_others.T):
        interference += e_j * np.abs(w.conj() @ g_j) ** 2
    return float(signal / interference)


def explicit_matrix(precond):
    """Dense matrix of a LowRankPreconditioner's implicit apply()."""
    n = precond.eigvecs.shape[0]
    return (np.eye(n, dtype=np.complex128)
            - (precond.eigvecs * precond.weights) @ precond.eigvecs.conj().T)


def surrogate_matrix(precond):
    """Dense low-rank surrogate qhat that a LowRankPreconditioner inverts."""
    n = precond.eigvecs.shape[0]
    return (np.eye(n, dtype=np.complex128)
            + (precond.eigvecs * (precond.eigvals - 1.0))
            @ precond.eigvecs.conj().T)


def einsum_gammas_oracle(stats, channels, x, noise_psd, rank=4, projectors=None,
                         operator=None):
    """Stream SINRs of scenario_gammas, one user at a time through einsum.

    The route scenario_gammas took before it batched all users into GEMMs:
    the full channel tensor is concatenated and each user's reduced
    covariance is contracted in numpy's own loops.  A beamspace x (operator
    given) is mapped back whole by from_beamspace, not by the row FFTs of
    scenario_gammas.  Same signature and result shape; agreement is to
    rounding, not bitwise.
    """
    if operator is not None:
        x = from_beamspace(operator, x)
    n_ue = len(stats)
    k_sc, _, n_streams = channels[0].h.shape
    big_h = _stacked_channels(channels)
    energies = np.repeat([st.symbol_energy for st in stats], n_streams)
    gammas = np.zeros((n_ue, k_sc, n_streams))
    if projectors is None:
        projectors = build_projectors(stats, rank)
    for i, (st, basis) in enumerate(zip(stats, projectors)):
        front = basis.conj().T @ x
        if not np.any(front):
            continue  # zero inverse: nothing received
        noise_cov = noise_psd * (front @ front.conj().T)
        g_all = np.einsum("rn,knm->krm", front, big_h)
        t_mat = noise_cov[None, :, :] + np.einsum(
            "krm,m,ksm->krs", g_all, energies, g_all.conj())
        own = slice(i * n_streams, (i + 1) * n_streams)
        g_own = g_all[:, :, own]
        sol = np.linalg.solve(t_mat, g_own)
        u = np.real(np.einsum("krs,krs->ks", g_own.conj(), sol))
        eu = np.clip(st.symbol_energy * u, 0.0, 1.0 - 1e-15)
        gammas[i] = eu / (1.0 - eu)
    return gammas


def _is_float_cell(cell):
    # write_csv prints floats by repr, which always carries '.', 'e',
    # 'nan' or 'inf'; integers and names never parse as one of those
    try:
        int(cell)
        return False
    except ValueError:
        pass
    try:
        float(cell)
        return True
    except ValueError:
        return False


def assert_sweep_tables_close(dir_a, dir_b, rtol=1e-12):
    """Two sweep output directories hold the same tables up to rounding.

    Both directories have the same files with the same headers and row
    counts; every non-float cell is byte-identical and every float cell
    agrees to rtol relative.  A bound.csv margin is a difference of two
    near-equal values, so it is judged against its row's gamma, and a dB
    cell is judged on its linear value, since relative error in dB blows
    up near 0 dB.

    This judges only changes that leave the iterates alone, such as
    evaluation-only changes.  A solver or preconditioner change moves the
    iterates, by rounding or by whole iterations, and residuals near eps
    or per-stream SINRs amplify that far past rtol; such a change is
    judged by test_cli.py::TestSweep::test_tables_within_sinr_bound_of_direct_inverse,
    which holds every table row to the direct inverse within the SINR
    bound at the iterate's residual.
    """
    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    for name in names:
        with open(os.path.join(dir_a, name), encoding="utf-8") as fh:
            rows_a = list(csv.reader(fh))
        with open(os.path.join(dir_b, name), encoding="utf-8") as fh:
            rows_b = list(csv.reader(fh))
        assert rows_a[0] == rows_b[0], name
        assert len(rows_a) == len(rows_b), name
        header = rows_a[0]
        for line, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), 2):
            where = "%s line %d" % (name, line)
            assert len(row_a) == len(row_b) == len(header), where
            for col, cell_a, cell_b in zip(header, row_a, row_b):
                if not (_is_float_cell(cell_a) and _is_float_cell(cell_b)):
                    assert cell_a == cell_b, "%s column %s" % (where, col)
                    continue
                a, b = float(cell_a), float(cell_b)
                if col.endswith("_db"):
                    a, b = 10.0 ** (a / 10.0), 10.0 ** (b / 10.0)
                scale = max(abs(a), abs(b))
                if col == "margin":
                    scale = abs(float(row_a[header.index("gamma")]))
                assert abs(a - b) <= rtol * scale, (
                    "%s column %s: %r vs %r" % (where, col, cell_a, cell_b))
