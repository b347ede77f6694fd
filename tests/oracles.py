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
  two counted products with the explicit DFT matrix op.f.

They share only the private contract helpers of ltbf.linalg (pivot floor,
counts, shape and Hermitian checks).  The package itself calls none of
them.
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
