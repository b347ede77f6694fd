"""Randomized low-rank eigendecomposition of Hermitian matrices.

Subspace iteration on a complex Gaussian start block, re-orthonormalized
with CholeskyQR2 after every product, followed by a Rayleigh-Ritz step on
the compressed matrix.  The sketch width equals the requested rank; there
is no oversampling.  Power iteration separates a mode at the rate of the
eigenvalue ratio, so what limits accuracy is the gap between the wanted
eigenvalues and the rest, not only the power count.  A system matrix that
is an identity plus a positive semidefinite loading has its weak modes at
1 + mu with mu of about 0.1 to 1, next to a unit cluster: on the matrix
itself they separate at 1/(1 + mu) per step, which is slow.  The `shift`
keyword runs the power steps on a - shift * I instead, and
build_preconditioner shifts by 1 - delta, delta = 1e-6 max(tr(a - I), 1),
which leaves mu + delta against a cluster at delta; the Rayleigh-Ritz
step still uses a itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cholqr import RankDeficiencyError, cholesky_qr2
from .linalg import DimensionMismatchError, gemm, hermitian_evd_small

__all__ = ["EVDResult", "gaussian_start_block", "randomized_evd"]

_MAX_REDRAWS = 3


@dataclass
class EVDResult:
    """Rank-limited eigenpairs.

    eigvecs : (n, rank) orthonormal columns.
    eigvals : (rank,) real, descending Ritz values, as computed: a value
        at or below zero is left for the caller to reject.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray


def gaussian_start_block(n, cols, seed):
    """Circular complex Gaussian block with unit-variance entries.

    Entry-wise (x + iy)/sqrt(2) with x, y independent standard normal
    draws from a dedicated 64-bit-seeded generator, so the same seed always
    reproduces the same block.
    """
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((n, cols))
    im = rng.standard_normal((n, cols))
    return (re + 1j * im) / np.sqrt(2.0)


def randomized_evd(a, rank, power_iters, seed, counter=None, shift=0.0):
    """Top eigenpairs of a Hermitian matrix by randomized subspace iteration.

    Parameters
    ----------
    a : (n, n) complex ndarray, Hermitian: a precondition, unchecked here
        and guaranteed by the SystemMatrix build_preconditioner passes.
        hermitian_evd_small still rejects a compressed block far from it.
    rank : int
        Number of eigenpairs, 1 <= rank <= n.
    power_iters : int
        Power iterations, >= 1.  Each one multiplies by a and
        re-orthonormalizes with CholeskyQR2.
    seed : int
        Seed for the start block.  On a rank-deficient sketch the block is
        redrawn with seed+1, seed+2, ... at most three times.
    counter : FlopCounter, optional.
    shift : float
        Each power iteration multiplies by a - shift * I, applied to the
        thin block as a q - shift q, so no shifted n x n copy is made.  The
        Rayleigh-Ritz step always uses a itself, so the eigenvalues are
        Ritz values of a whatever the shift.

    Returns
    -------
    EVDResult
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("expected a square matrix")
    n = a.shape[0]
    if not (1 <= rank <= n):
        raise DimensionMismatchError("rank must lie in [1, %d], got %d" % (n, rank))
    if power_iters < 1:
        raise ValueError("power_iters must be >= 1")

    last_err = None
    for redraw in range(_MAX_REDRAWS + 1):
        try:
            q_cur = gaussian_start_block(n, rank, seed + redraw)
            for _ in range(power_iters):
                y = gemm(a, q_cur, counter=counter)
                if shift:
                    y -= shift * q_cur
                    if counter is not None:
                        counter.add("col_scale", y.size, y.size)
                q_cur = cholesky_qr2(y, counter=counter)
            t = gemm(a, q_cur, counter=counter)
            b = gemm(q_cur.conj().T, t, counter=counter)
            vals, vecs = hermitian_evd_small(b, counter=counter)
            u = gemm(q_cur, vecs, counter=counter)
            return EVDResult(eigvecs=u, eigvals=vals)
        except RankDeficiencyError as err:
            last_err = err
            continue
    raise RankDeficiencyError(
        "sketch stayed rank deficient after %d redraws" % _MAX_REDRAWS) from last_err
