"""Link-level evaluation of approximate inverses.

The receive chain under test projects each user's observations onto the
dominant eigenvectors of that user's long-term covariance and applies the
(approximate) whitened front-end built from the system-matrix inverse.
Post-combining SINR per stream comes from the reduced-space MMSE identity
gamma = e*u / (1 - e*u) with u = g^H T^{-1} g, where T is the reduced
covariance of the total received signal including the stream itself.
scenario_gammas scores all users in one batched pass: the users' bases
are stacked into one block, so every front-end is one product, each user
channel is projected onto every front-end by one GEMM over the antenna
axis, and the reduced covariances and solves are batched matmuls over
users and subcarriers rather than a per-user loop.  A beamspace iterate
X_b is scored without mapping it back: given the operator, the front-ends
B^H F^H X_b F come from row FFTs of the stacked block (beamspace's
rows_from_beamspace).  That layout needs every user's basis to have the
same rank; mixed ranks are rejected.  The module holds only this
production path; the references it is tested against (a full-dimension
MMSE receiver as the upper baseline, a per-element beamformed
signal-over-interference quotient and a per-user einsum route) live in
the test suite's helpers.

capacity_vs_iterations follows one block-CG run and hands the iterate at
each iteration budget to a caller's scorer, so the scoring recipe (domain
map, projectors, SINR, capacity) is written once, by the caller.

Degradation under an inexact inverse is compared against the algebraic
guarantee rhs = gamma0 * (1-eps)^2 / ((1+eps)^2 + 4*eps*mean(gamma0)),
with eps the spectral norm of Q X - I; it holds for eps < 1, and at
eps >= 1, where Q X may be singular, 1 - eps is clamped at 0 (rhs = 0).
inverse_error takes that norm as the square root of the top eigenvalue
of the Gram matrix E^H E, one GEMM and a Hermitian eigenvalue solve in
place of a values-only SVD (at N = 256 on a 2-core OpenBLAS machine,
9 ms against 15 ms with two BLAS threads, about even with one); the
eigenvalue's relative error is of order N u, far inside what the bound needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamspace import rows_from_beamspace
from .cg import CGConfig, accuracy_level_scale, cg_inverse, residual_norm
from .linalg import fro_norm

__all__ = [
    "build_projector",
    "build_projectors",
    "inverse_error",
    "scenario_gammas",
    "BoundCheck",
    "check_sinr_bound",
    "capacity",
    "capacity_vs_iterations",
    "sinr_cdf",
    "write_csv",
]


def build_projector(covariance, rank):
    """Dominant-eigenvector basis of a user covariance.

    perfbench's tracer binds the `covariance` argument by name.

    Returns an (N, rank) orthonormal matrix whose columns are the top
    eigenvectors in descending eigenvalue order.
    """
    cov = np.asarray(covariance)
    n = cov.shape[0]
    if not 1 <= rank <= n:
        raise ValueError("rank must be in [1, %d], got %d" % (n, rank))
    _, vecs = np.linalg.eigh(0.5 * (cov + cov.conj().T))
    return np.ascontiguousarray(vecs[:, ::-1][:, :rank])


def build_projectors(stats, rank):
    """One build_projector basis per user, in user order.

    The bases depend only on the long-term statistics, so callers that
    evaluate many inverses of one scenario build them once and pass them
    to every scenario_gammas call.
    """
    return [build_projector(st.covariance, rank) for st in stats]


def inverse_error(system, x):
    """Residual sizes of an approximate inverse: (relative Frobenius, spectral).

    The Frobenius figure is ||Q X - I||_F / sqrt(N), matching the solver's
    stopping rule; the spectral norm of Q X - I is the operator-level eps
    entering the SINR guarantee, taken from the Gram matrix (see
    _spectral_norm).  A residual holding NaN raises LinAlgError.  Q X - I
    is formed in the product's block: subtracting 0 off the diagonal
    changes no bit, signed zeros included.
    """
    q = system.matrix
    n = q.shape[0]
    resid = q @ x
    resid.flat[::n + 1] -= 1.0
    fro = float(np.linalg.norm(resid)) / np.sqrt(n)
    return fro, _spectral_norm(resid)


def _spectral_norm(a):
    """||a||_2 as sqrt(lambda_max(a^H a)); 0.0 for a zero matrix.

    The top eigenvalue of the Gram matrix carries a relative error of
    order N u, so the norm agrees with the SVD's to about N u / 2; the
    clip keeps a rounding-negative top eigenvalue of a near-zero a from
    the square root.
    """
    top = np.linalg.eigvalsh(a.conj().T @ a)[-1]
    return float(np.sqrt(max(top, 0.0)))


def _stream_energies(stats, n_streams):
    return np.repeat([st.symbol_energy for st in stats], n_streams)


def scenario_gammas(stats, channels, x, noise_psd, projectors=None,
                    operator=None):
    """Post-combining SINR of every stream under a given inverse.

    All users are scored in one batched pass: the conjugate-transposed
    bases are stacked into one (n_ue*r, N) block B^H, so one product with
    x gives every user's front-end, one GEMM per user channel contracts
    its antenna axis with every front-end (tensordot, which reads a
    (subcarriers, N, 1) channel as a view), and the r x r noise
    covariances, reduced covariances T and solves are batched over users
    and subcarriers.  The stacked layout needs every basis to have the
    same (N, r) shape.

    With operator, x is a beamspace iterate X_b and the front-ends are
    B^H F^H X_b F, formed by row FFTs of B^H (rows_from_beamspace) rather
    than from the back-mapped N x N matrix; the result matches
    scenario_gammas(stats, channels, from_beamspace(operator, x), ...)
    to rounding.

    Parameters
    ----------
    stats, channels : per-user lists from the scenario generator.
    x : (N, N) approximate inverse of the system matrix, in the antenna
        domain, or in beamspace when operator is given.
    noise_psd : noise power spectral density N0.
    projectors : per-user bases from build_projectors, whose rank is the
        dimension of each user's projection subspace; rank 4 when omitted.
    operator : the BeamspaceOperator of a beamspace x; None for an
        antenna-domain x.

    Returns
    -------
    (n_ue, subcarriers, n_streams) array of linear SINR values.

    Raises
    ------
    ValueError
        If the projectors do not all share one (N, r) shape.
    """
    n_ue = len(stats)
    k_sc, n, n_streams = channels[0].h.shape
    gammas = np.zeros((n_ue, k_sc, n_streams))
    if projectors is None:
        projectors = build_projectors(stats, 4)
    shapes = {np.shape(basis) for basis in projectors}
    if len(shapes) != 1:
        raise ValueError("projectors must share one (N, r) shape, got %s"
                         % sorted(shapes))
    r = shapes.pop()[1]
    basis_h = np.concatenate([basis.conj().T for basis in projectors])
    if operator is None:
        fronts = basis_h @ x
    else:
        fronts = rows_from_beamspace(operator, basis_h, x)
    fronts = fronts.reshape(n_ue, r, n)
    # a zero front-end (zero inverse) receives nothing
    active = np.flatnonzero([np.any(front) for front in fronts])
    if active.size == 0:
        return gammas
    fronts = fronts[active]
    n_act = active.size
    stacked = fronts.reshape(n_act * r, n)
    # (n_act*r, subcarriers, n_ue, n_streams), user-major stream order
    g_all = np.stack([np.tensordot(stacked, ch.h, axes=([1], [1]))
                      for ch in channels], axis=2)
    g_all = g_all.reshape(n_act, r, k_sc, n_ue * n_streams).transpose(0, 2, 1, 3)
    energies = _stream_energies(stats, n_streams)
    noise_cov = noise_psd * (fronts @ fronts.conj().swapaxes(-1, -2))
    t_mat = noise_cov[:, None] + (g_all * energies) @ g_all.conj().swapaxes(-1, -2)
    # (n_act, subcarriers, r, n_streams): each active user's own streams
    g_own = g_all.reshape(n_act, k_sc, r, n_ue, n_streams)[
        np.arange(n_act), :, :, active]
    sol = np.linalg.solve(t_mat, g_own)
    u = np.real(np.sum(g_own.conj() * sol, axis=-2))
    own_energy = np.array([stats[i].symbol_energy for i in active])
    # e*u < 1 holds exactly; clip shields the quotient from roundoff
    eu = np.clip(own_energy[:, None, None] * u, 0.0, 1.0 - 1e-15)
    gammas[active] = eu / (1.0 - eu)
    return gammas


@dataclass
class BoundCheck:
    """Outcome of testing gammas against the perturbation guarantee."""

    rhs: np.ndarray
    fraction_ok: float
    min_margin: float


def check_sinr_bound(gamma_exact, gamma_approx, epsilon):
    """Check approximate-inverse SINRs against the algebraic lower bound.

    Arrays are shaped (n_ue, ...); for every resource element of user i
    the guarantee is
        gamma_approx >= gamma_exact * (1-eps)^2
                        / ((1+eps)^2 + 4*eps*mean_i(gamma_exact))
    where the mean runs over user i's own elements (the expectation over
    small-scale fading) and eps is the spectral residual norm of the
    inverse.  It holds for eps < 1; at eps >= 1, where Q X may be
    singular, 1 - eps is clamped at 0, so rhs is 0.
    """
    g0 = np.asarray(gamma_exact, dtype=float)
    g1 = np.asarray(gamma_approx, dtype=float)
    if g0.shape != g1.shape:
        raise ValueError("exact and approximate SINR sets differ in shape")
    eps = float(epsilon)
    user_mean = np.mean(g0.reshape(g0.shape[0], -1), axis=1)
    shape = (g0.shape[0],) + (1,) * (g0.ndim - 1)
    rhs = g0 * max(1.0 - eps, 0.0) ** 2 / (
        (1.0 + eps) ** 2 + 4.0 * eps * user_mean.reshape(shape))
    margin = g1 - rhs
    return BoundCheck(rhs=rhs,
                      fraction_ok=float(np.mean(margin >= 0.0)),
                      min_margin=float(np.min(margin)))


def capacity(gammas):
    """Mean spectral efficiency in bits: per-user mean of log2(1 + gamma),
    averaged over users."""
    g = np.asarray(gammas, dtype=float)
    per_user = np.mean(np.log2(1.0 + g), axis=tuple(range(1, g.ndim)))
    return float(np.mean(per_user))


def capacity_vs_iterations(system, score, checkpoints, tolerances,
                           preconditioner=None):
    """Capacity at iteration budgets and iterates at tolerances, from one
    solver run.

    score(x) takes an iterate in system's domain and returns its capacity.
    It is called once per distinct scored iteration, with the iterate that
    iteration's rows report, iteration 0 with the zero matrix, and never
    without checkpoints (score may then be None).  The hook defers each
    score until the run goes past that iteration, holding one iterate, so
    a budget where the run stagnates is scored only at the iterate cg
    returns there.  A caller scoring a transformed system maps x back to
    the antenna domain inside score, or scores it in its own domain.

    Through the cg_inverse iteration hook, each budget is scored as the
    run reaches it, and each tolerance takes the iterate at which a
    separate cg_inverse(max_iters=10 N, tolerance) run would stop.
    A run with budgets goes at epsilon 0, so cg's stop rule ends it at its
    attainable accuracy; one without goes at the smallest tolerance.
    Scoring ends at the first iterate k whose recorded residual is below
    cg's accuracy level, or where the run stagnates (scored at the best
    checked iterate cg returns there), so a budget at or past k reports
    k, as a separate epsilon-0 run with max_iters=min(budget, k) would.
    Budgets may repeat and come in any order; 0 scores the zero inverse.
    The run ends once the budgets are scored and every tolerance is met;
    a tolerance still unmet where cg stops takes the iterate cg returns.

    Returns (rows, converged), one dict per checkpoint and per tolerance
    in the given order: rows with keys requested, iterations, capacity;
    converged with keys iterations and x, x in system's domain.

    A tolerance's iterate equals a separate run's bit for bit, except
    where the recursive residual estimate passes the tolerance while the
    true residual is still above it: a separate run replaces its residual
    there, and its later iterates differ from this run's in the low bits.
    The iterate taken is then the first later one whose estimate and true
    residual are both below it.

    perfbench's tracer binds the `checkpoints` argument by name.
    """
    n = system.matrix.shape[0]
    budgets = [int(b) for b in checkpoints]
    tolerances = list(tolerances)
    if budgets and not (0 <= min(budgets) and max(budgets) <= 10 * n):
        raise ValueError("checkpoints must lie in [0, %d], got %s"
                         % (10 * n, budgets))
    if not all(0.0 < tol < 1.0 for tol in tolerances):
        raise ValueError("tolerances must lie in (0, 1), got %s" % tolerances)
    top = max(budgets, default=0)
    wanted = set(budgets)
    scores = {}  # iteration count -> capacity
    level_scale = accuracy_level_scale(system)
    attained_at = None  # where scoring ends short of the top budget
    found = {}  # tolerance -> (iterations, x)
    deferred = None  # (iterations, x) to score once the run goes past it

    def score_deferred():
        nonlocal deferred
        if deferred is not None:
            scores[deferred[0]] = score(deferred[1])
            deferred = None

    def on_iteration(iterations, x, residual):
        nonlocal attained_at, deferred
        score_deferred()
        if iterations <= top and attained_at is None:
            if residual < level_scale * fro_norm(x):
                attained_at = iterations
            if iterations in wanted or attained_at is not None:
                deferred = (iterations, x)
        # as in a separate run, a tolerance is met where the recorded and
        # then the true residual are below it
        pending = [tol for tol in tolerances
                   if tol not in found and residual < tol]
        if pending:
            true = residual_norm(system, x)
            found.update((tol, (iterations, x)) for tol in pending
                         if true < tol)
        budgets_done = iterations >= top or attained_at is not None
        return budgets_done and all(tol in found for tol in tolerances)

    if 0 in wanted:
        scores[0] = score(np.zeros((n, n), dtype=np.complex128))
    max_iters = 10 * n if tolerances else top
    if max_iters:
        cfg = CGConfig(max_iters=max_iters,
                       epsilon=0.0 if budgets else min(tolerances))
        state = cg_inverse(system, preconditioner=preconditioner, config=cfg,
                           on_iteration=on_iteration)
        if (state.stop == "stagnated" and attained_at is None
                and state.iterations < top):
            # the row reports the best checked iterate cg returns, not
            # the last one the hook saw
            attained_at = state.iterations
            deferred = (attained_at, state.x)
    score_deferred()
    rows = []
    for budget in budgets:
        iterations = budget if attained_at is None else min(budget, attained_at)
        rows.append({"requested": budget, "iterations": iterations,
                     "capacity": scores[iterations]})
    converged = []
    for tol in tolerances:
        # a tolerance unmet where the run stops gets the returned iterate
        iterations, x = found.get(tol, (state.iterations, state.x))
        converged.append({"iterations": iterations, "x": x})
    return rows, converged


def sinr_cdf(gammas):
    """Empirical CDF of stream SINRs in dB.

    Returns (sorted dB values, plotting positions (i+1)/n).
    """
    flat = np.sort(np.asarray(gammas, dtype=float).reshape(-1))
    flat = np.maximum(flat, 1e-30)  # log of a hard zero
    probs = np.arange(1, flat.size + 1) / flat.size
    return 10.0 * np.log10(flat), probs


def write_csv(path, header, rows):
    """Write a header line and comma-joined rows; floats keep every digit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(cell) for cell in row) + "\n")


def _format_cell(cell):
    # repr of a builtin float round-trips; numpy scalars repr differently
    if isinstance(cell, (float, np.floating)):
        return repr(float(cell))
    return str(cell)

