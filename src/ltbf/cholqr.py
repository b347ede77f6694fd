"""CholeskyQR2 orthogonalization of tall-skinny complex blocks.

A single Cholesky-QR pass (Gram matrix, Cholesky, triangular solve) loses
orthogonality proportionally to the squared condition number of the input.
Running the pass twice repairs that: the second pass sees an almost
orthonormal block and pushes the defect down to round-off.  The algorithm
is attractive here because every heavy step is a matrix product, which is
exactly what the operation counters and the target hardware like.

Only the orthonormal block is returned, the whole output the randomized
eigensolver reads.  A caller that wants the triangular factor r with
q @ r == a forms it as q^H a.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    CholeskyBreakdownError,
    DimensionMismatchError,
    cholesky,
    gemm,
    trsm_right_upper_ct,
)

__all__ = ["RankDeficiencyError", "cholesky_qr2"]


class RankDeficiencyError(ArithmeticError):
    """The block is numerically rank deficient even after a shifted retry."""


def _chol_with_retry(w, counter, retry_allowed):
    """Cholesky with at most one diagonal-shift retry before giving up.

    Returns the lower factor and whether the shifted retry was taken.
    The retry budget is shared by both passes of cholesky_qr2: a genuinely
    rank-deficient block breaks down again on the second Gram even after a
    shifted first pass, and that second breakdown must surface as an error
    instead of silently returning a block with dead columns.
    """
    try:
        return cholesky(w, counter=counter), False
    except CholeskyBreakdownError as first:
        if not retry_allowed:
            raise RankDeficiencyError(
                "gram matrix is not positive definite (shift retry already "
                "spent)") from first
        shift = 1e-12 * float(np.real(np.trace(w))) / w.shape[0]
        try:
            shifted = w + shift * np.eye(w.shape[0], dtype=np.complex128)
            return cholesky(shifted, counter=counter), True
        except CholeskyBreakdownError:
            raise RankDeficiencyError(
                "gram matrix is not positive definite after shift %.3e"
                % shift) from first


def cholesky_qr2(a, counter=None):
    """Orthonormalize the columns of a tall-skinny block by CholeskyQR2.

    Parameters
    ----------
    a : (n, k) complex ndarray with n >= k >= 1.  Must have numerically
        full column rank; stable up to condition number about u^-1/2 = 1e8
        (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 44, 2015).
    counter : FlopCounter, optional
        Charged through the two Gram products, two Cholesky
        factorizations and two triangular solves.

    Returns
    -------
    q : (n, k) complex ndarray with orthonormal columns spanning those of a.

    Raises
    ------
    RankDeficiencyError
        When a Gram Cholesky breaks down after the one diagonal-shift
        retry (shift = 1e-12 * trace / k) allowed per call.  Exactly
        dependent columns take this path: the shifted first pass produces
        a dead direction whose second-pass Gram breaks down again.
    """
    if a.ndim != 2:
        raise DimensionMismatchError("expected a 2-D block")
    n, k = a.shape
    if k < 1 or n < k:
        raise DimensionMismatchError(
            "need n >= k >= 1 for a tall-skinny block, got %s" % ((n, k),))

    q, retry_allowed = a, True
    for _ in range(2):
        w = gemm(q.conj().T, q, counter=counter)
        l, shifted = _chol_with_retry(w, counter, retry_allowed)
        retry_allowed = not shifted  # read by the second pass only
        q = trsm_right_upper_ct(q, l, counter=counter)
    return q
