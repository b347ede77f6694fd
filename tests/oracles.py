"""Slow reference routes for the package's production kernels.

Each production kernel of ltbf.linalg and ltbf.beamspace is tested
against an independent route here, with the same contract and the same
nominal count, so a test that compares the two routes checks the
arithmetic and nothing else:

- cholesky_oracle: the left-looking column Cholesky loop;
- trsm_right_upper_ct_oracle: column substitution;
- hermitian_evd_small_oracle: cyclic Jacobi, capped at dimension 64 as an
  oracle-only limit;
- full_evd_oracle: the same Jacobi up to dimension 1024, the reference
  spectrum the randomized sketch is judged against;
- direct_inverse_oracle: the loop Cholesky and substitution against the
  identity;
- dense_to_beamspace / dense_from_beamspace: the beamspace similarity as
  two counted products with the explicit DFT matrix op.f;
- hermitian_part_oracle, steering_oracle and steering_columns_oracle: the
  scenario generator's dense Hermitian part and its per-path np.kron
  steering loop, and generate_scenario_oracle, the generator composed
  from them;
- first_iterate_oracle, first_residual_oracle,
  identity_minus_product_oracle and product_minus_identity_oracle: the
  dense forms with an explicit zero or identity block that cg_inverse and
  inverse_error form in place, and block_cg_oracle, block CG composed
  from them.

They share only the private contract helpers of ltbf.linalg (pivot floor,
counts, shape and Hermitian checks) and the generator's draws and
degeneracy test.  The package itself calls none of them.
"""

import numpy as np

from ltbf.linalg import (
    CholeskyBreakdownError,
    DimensionMismatchError,
    JacobiConvergenceError,
    _charge_cholesky,
    _charge_trsm,
    _check_hermitian,
    _check_trsm,
    _pivot_floor,
    fro_norm,
    gemm,
)
from ltbf.scenario import _degenerate, _draw_user


def cholesky_oracle(w, counter=None):
    """Lower Cholesky factor by the left-looking column loop.

    Reference kernel for cholesky, with the same contract and count: a
    pivot at or below 1e-14 * trace(w) / n raises CholeskyBreakdownError
    at its column, after the factorization is charged.
    """
    _check_hermitian(w, 1e-12, "cholesky input")
    n = w.shape[0]
    _charge_cholesky(counter, n)
    floor = _pivot_floor(w)
    l = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        col = w[j:, j] - l[j:, :j] @ l[j, :j].conj()
        pivot = float(col[0].real)
        if pivot <= floor:
            raise CholeskyBreakdownError(
                "cholesky breakdown at pivot %d (value %.3e)" % (j, pivot))
        d = np.sqrt(pivot)
        l[j, j] = d
        l[j + 1:, j] = col[1:] / d
    return l


def trsm_right_upper_ct_oracle(y, l, counter=None):
    """trsm_right_upper_ct by column substitution: reference kernel."""
    _check_trsm(y, l)
    z = np.zeros_like(y, dtype=np.complex128)
    for j in range(l.shape[0]):
        z[:, j] = (y[:, j] - z[:, :j] @ l[j, :j].conj()) / np.conj(l[j, j])
    _charge_trsm(counter, y)
    return z


def _jacobi_rotate(a, v, p, q, counter_box):
    """One cyclic-Jacobi rotation zeroing a[p, q] of a Hermitian matrix.

    Updates a in place as g^H a g and accumulates g into the eigenvector
    matrix v.  The rotation is the classic real Jacobi rotation composed
    with a phase that makes the pivot entry real.
    """
    apq = a[p, q]
    t_abs = abs(apq)
    if t_abs == 0.0:
        return
    app = a[p, p].real
    aqq = a[q, q].real
    u = apq / t_abs
    tau = (aqq - app) / (2.0 * t_abs)
    if tau >= 0.0:
        t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    # 2x2 unitary g = diag(u, 1) @ [[c, s], [-s, c]]
    g00 = u * c
    g01 = u * s
    g10 = -s
    g11 = c
    n = a.shape[0]

    cp = a[:, p].copy()
    cq = a[:, q].copy()
    a[:, p] = cp * g00 + cq * g10
    a[:, q] = cp * g01 + cq * g11
    rp = a[p, :].copy()
    rq = a[q, :].copy()
    a[p, :] = np.conj(g00) * rp + np.conj(g10) * rq
    a[q, :] = np.conj(g01) * rp + np.conj(g11) * rq
    # keep the invariants of a Hermitian matrix exact under round-off
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real

    vp = v[:, p].copy()
    vq = v[:, q].copy()
    v[:, p] = vp * g00 + vq * g10
    v[:, q] = vp * g01 + vq * g11
    counter_box[0] += 12 * n


def _jacobi_evd(a_in, tol, max_sweeps, counter, kernel):
    a = 0.5 * (a_in + a_in.conj().T)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    scale = fro_norm(a)
    rot_mults = [0]
    if scale == 0.0 or n == 1:
        vals = np.real(np.diag(a)).copy()
        return vals, v
    converged = False
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= tol * scale:
            converged = True
            break
        thresh = tol * scale / n
        for p in range(n - 1):
            row = a[p, p + 1:]
            if not np.any(np.abs(row) > thresh):
                continue
            for q in range(p + 1, n):
                if abs(a[p, q]) > thresh:
                    _jacobi_rotate(a, v, p, q, rot_mults)
    if not converged:
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off > tol * scale:
            raise JacobiConvergenceError(
                "jacobi sweep budget %d exhausted (off %.3e, target %.3e)"
                % (max_sweeps, off, tol * scale))
    if counter is not None:
        counter.add(kernel, rot_mults[0], rot_mults[0])
    vals = np.real(np.diag(a)).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], np.ascontiguousarray(v[:, order])


def _check_small_evd(b, name):
    _check_hermitian(b, 1e-10, "evd input")
    if b.shape[0] > 64:
        raise DimensionMismatchError(
            "%s is limited to dimension 64, got %d" % (name, b.shape[0]))


def hermitian_evd_small_oracle(b, counter=None, tol=1e-13, max_sweeps=30):
    """hermitian_evd_small by cyclic Jacobi: reference kernel.

    Same contract, except that the counter is charged 12 q multiplies per
    rotation performed, under the same "jacobi_evd" tag.

    Parameters
    ----------
    tol : float
        Sweep convergence target on the off-diagonal Frobenius mass,
        relative to the Frobenius norm of b.
    max_sweeps : int
        Sweep budget; exhausting it raises JacobiConvergenceError.
    """
    _check_small_evd(b, "hermitian_evd_small_oracle")
    return _jacobi_evd(b, tol, max_sweeps, counter, "jacobi_evd")


def full_evd_oracle(q_mat, counter=None, tol=1e-14, max_sweeps=30):
    """Full eigendecomposition by cyclic Jacobi, for tests and diagnostics.

    Same algorithm as hermitian_evd_small_oracle but admits dimensions up to
    1024 and runs to a tighter default tolerance.  This is the reference spectrum
    the randomized decomposition is judged against, so it must never share
    code with that path beyond these elementary rotations.
    """
    _check_hermitian(q_mat, 1e-10, "evd input")
    if q_mat.shape[0] > 1024:
        raise DimensionMismatchError(
            "full_evd_oracle is limited to dimension 1024, got %d" % q_mat.shape[0])
    return _jacobi_evd(q_mat, tol, max_sweeps, counter, "jacobi_evd_full")


def direct_inverse_oracle(q_mat, counter=None):
    """Dense inverse of a Hermitian positive definite matrix.

    Cholesky followed by a triangular solve against the identity; the
    inverse is assembled as z z^H with z = l^{-H}.  Reference path for
    solver tests and demos, not part of the pipeline.
    """
    n = q_mat.shape[0]
    l = cholesky_oracle(q_mat, counter=counter)
    eye = np.eye(n, dtype=np.complex128)
    z = trsm_right_upper_ct_oracle(eye, l, counter=counter)
    return gemm(z, z.conj().T, counter=counter)


def dense_to_beamspace(op, a, counter=None):
    """F a F^H with the explicit DFT matrix, two counted products."""
    f = op.f
    return gemm(gemm(f, a, counter=counter), f.conj().T, counter=counter)


def dense_from_beamspace(op, a, counter=None):
    """F^H a F with the explicit DFT matrix, two counted products."""
    f = op.f
    return gemm(gemm(f.conj().T, a, counter=counter), f, counter=counter)


def hermitian_part_oracle(c):
    """Hermitian part of a square matrix, as the dense expression."""
    return 0.5 * (c + c.conj().T)


def steering_oracle(side, azimuth, elevation):
    """One direction's planar-array response, as np.kron of the two axis
    responses."""
    u = np.sin(azimuth) * np.cos(elevation)
    v = np.sin(elevation)
    m = np.arange(side)
    return np.kron(np.exp(1j * np.pi * m * u), np.exp(1j * np.pi * m * v))


def steering_columns_oracle(side, azimuths, elevations):
    """(N, streams * paths) steering columns by the per-path loop: column
    s * paths + l steers stream s, path l."""
    streams, paths = azimuths.shape
    steer = np.empty((side * side, streams * paths), dtype=np.complex128)
    for s in range(streams):
        for l in range(paths):
            steer[:, s * paths + l] = steering_oracle(
                side, azimuths[s, l], elevations[s, l])
    return steer


def generate_scenario_oracle(cfg):
    """(covariances, channels) of generate_scenario for a config whose
    geometry is not degenerate, composed from the slow routes above."""
    n, k_sc = cfg.n_antennas, cfg.subcarriers
    covs, hs = [], []
    for user in range(cfg.n_ue):
        for attempt in range(5):
            azimuths, elevations, powers, phases, taps = _draw_user(
                cfg, user, attempt)
            steer = steering_columns_oracle(cfg.side, azimuths, elevations)
            if not _degenerate(steer, n):
                break
        weights = (powers / cfg.n_streams).reshape(-1)
        cov = hermitian_part_oracle((steer * weights) @ steer.conj().T)
        cov *= n / float(np.real(np.trace(cov)))
        grid = np.arange(k_sc)
        coeff = (np.sqrt(powers)[None] * np.exp(1j * phases)[None]
                 * np.exp(-2j * np.pi * grid[:, None, None] * taps[None] / k_sc))
        steer3 = steer.reshape(n, cfg.n_streams, cfg.paths_per_user)
        covs.append(cov)
        hs.append(np.einsum("nsl,ksl->kns", steer3, coeff))
    return covs, hs


def first_iterate_oracle(p0, alpha):
    """X_1 = 0 + P_0 diag(alpha), with an explicit zero block."""
    return np.zeros_like(p0) + p0 * alpha[None, :]


def first_residual_oracle(s0, alpha):
    """R_1 = I - S_0 diag(alpha), with an explicit identity."""
    return np.eye(s0.shape[0], dtype=np.complex128) - s0 * alpha[None, :]


def identity_minus_product_oracle(q, x):
    """I - Q X, with an explicit identity."""
    return np.eye(q.shape[0], dtype=np.complex128) - q @ x


def product_minus_identity_oracle(q, x):
    """Q X - I, with an explicit identity."""
    return q @ x - np.eye(q.shape[0], dtype=np.complex128)


def block_cg_oracle(q, preconditioner, iters):
    """(X_iters, its true residual block) of block CG from X_0 = 0, with the
    solver's step and freeze rules on explicit blocks.

    It matches cg_inverse(max_iters=iters, epsilon=0) byte for byte on a
    run that stops on its budget with no residual replacement, which holds
    at epsilon 0 (the true residual never falls below it).  The residual
    block of iters = 1 is R_1 itself, which cg_inverse records as X_1's.
    """
    n = q.shape[0]
    if preconditioner is None:
        def apply(block):
            return block
        p = np.eye(n, dtype=np.complex128)
        s = q.copy()
    else:
        apply = preconditioner.apply
        p = apply(np.eye(n, dtype=np.complex128))
        # S_0 = Q P_0 = (M^-1 Q)^H, in row-major order as cg_inverse keeps it
        s = np.ascontiguousarray(np.conjugate(apply(q).T))
    rz = np.diagonal(p).copy()
    frozen = np.zeros(n, dtype=bool)
    for it in range(iters):
        if it > 0:
            s = q @ p
        ps = np.einsum("ij,ij->j", p.conj(), s)
        frozen |= np.abs(ps) < 1e-300
        alpha = np.where(frozen, 0.0, rz / np.where(frozen, 1.0, ps))
        if it == 0:
            x = first_iterate_oracle(p, alpha)
            r = first_residual_oracle(s, alpha)
        else:
            x = x + p * alpha[None, :]
            r = r - s * alpha[None, :]
        if it + 1 == iters:
            break
        z = apply(r)
        rz_new = np.einsum("ij,ij->j", r.conj(), z)
        frozen |= np.abs(rz) < 1e-300
        beta = np.where(frozen, 0.0, rz_new / np.where(frozen, 1.0, rz))
        if np.any(frozen):
            z = np.where(frozen[None, :], 0.0, z)
        p = p * beta[None, :] + z
        rz = rz_new
    return x, r if iters == 1 else identity_minus_product_oracle(q, x)
