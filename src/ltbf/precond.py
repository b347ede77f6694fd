"""Low-rank Woodbury preconditioner for clustered-spectrum systems.

The system matrices handled here are an identity plus a positive
semidefinite update, so all but a handful of eigenvalues sit in a tight
cluster.  Approximating the matrix by

    qhat = sigma2 * I + U (Lambda - sigma2 I) U^H

with (U, Lambda) the top eigenpairs and sigma2 the mean diagonal level
makes qhat invertible in closed form by the Woodbury identity.  The
preconditioner is exactly that inverse, and it is only ever applied
implicitly:

    M R = R / sigma2 - U (w * (U^H R)),   w_k = 1/sigma2 - 1/lambda_k

evaluated strictly right to left so the cost stays at two thin products
per application instead of an n^2 rebuild.

build_preconditioner finds (U, Lambda) by sketching the loading Q - I plus
a small shift rather than Q, as randomized Nystrom preconditioning does
(Frangella, Tropp & Udell, SIAM J. Matrix Anal. Appl. 44, 2023): the power
iterations then separate the weak modes from a cluster near zero instead
of one at one, and the sketch needs about as many CG iterations as exact
eigenpairs would.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DimensionMismatchError
from .randevd import randomized_evd

__all__ = ["InvalidSpectrumError", "LowRankPreconditioner", "build_preconditioner",
           "from_eigenpairs"]


class InvalidSpectrumError(ArithmeticError):
    """The sketched spectrum is unusable (non-positive eigenvalue)."""


@dataclass
class LowRankPreconditioner:
    """Implicit inverse of the low-rank spectral surrogate.

    eigvecs : (n, rank) orthonormal columns of the sketched eigenbasis.
    eigvals : (rank,) positive sketched eigenvalues, descending.
    sigma2 : the cluster level, mean diagonal of the source matrix.
    weights : (rank,) real, 1/sigma2 - 1/eigvals, precomputed once.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    sigma2: float
    weights: np.ndarray

    @cached_property
    def _c64(self):
        """(eigvecs, weights) cast once to complex64 and float32."""
        return self.eigvecs.astype(np.complex64), self.weights.astype(np.float32)

    def apply(self, block, counter=None):
        """Apply the preconditioner to an (n, m) block.

        Never forms the dense operator; two thin products and a diagonal
        scaling, charged to the counter under "precond_apply".  A
        complex64 block is worked on in complex64 throughout.
        """
        if block.ndim != 2 or block.shape[0] != self.eigvecs.shape[0]:
            raise DimensionMismatchError(
                "block must have %d rows, got shape %s"
                % (self.eigvecs.shape[0], (block.shape,)))
        if block.dtype == np.complex64:
            eigvecs, weights = self._c64
        else:
            eigvecs, weights = self.eigvecs, self.weights
        proj = np.matmul(eigvecs.conj().T, block)
        out = block * (1.0 / self.sigma2)
        out -= np.matmul(eigvecs, weights[:, None] * proj)
        if counter is not None:
            n, m = block.shape
            rank = self.eigvals.shape[0]
            counter.add("precond_apply",
                        2 * rank * n * m + rank * m + n * m,
                        2 * rank * n * m + n * m)
        return out


def from_eigenpairs(eigvecs, eigvals, sigma2):
    """Wrap already-known eigenpairs without sketching.

    Useful when the low-rank structure is known exactly, e.g. matrices
    assembled from a prescribed spectrum.  With exact eigenpairs the
    apply() of the result inverts the surrogate exactly.

    Raises
    ------
    InvalidSpectrumError
        If sigma2 or any supplied eigenvalue is non-positive.
    """
    eigvals = np.asarray(eigvals, dtype=np.float64)
    sigma2 = float(sigma2)
    if sigma2 <= 0.0:
        raise InvalidSpectrumError("cluster level sigma2 must be positive, got %g" % sigma2)
    if eigvals.size and float(np.min(eigvals)) <= 0.0:
        raise InvalidSpectrumError(
            "eigenvalue %.3e is not positive" % float(np.min(eigvals)))
    weights = 1.0 / sigma2 - 1.0 / eigvals
    return LowRankPreconditioner(eigvecs=np.asarray(eigvecs, dtype=np.complex128),
                                 eigvals=eigvals, sigma2=sigma2, weights=weights)


def build_preconditioner(system, rank, power_iters, seed, counter=None):
    """Sketch the top eigenpairs of a system matrix and wrap them.

    The system is expected to be an identity plus a positive semidefinite
    loading, Q = I + L, which assemble_q and to_beamspace always produce.
    The power iterations then run on L + delta I = Q - (1 - delta) I
    rather than on Q: each loaded mode 1 + mu of Q shows up as mu + delta,
    far from the unit cluster, which drops to delta.  The Ritz values are
    still those of Q.  The small shift delta keeps the sketch full rank
    when L has fewer than `rank` modes, and is taken relative to the
    loading,

        delta = 1e-3 * max(tr(L), 1),   tr(L) = N (sigma2 - 1),

    so that each power step multiplies by a matrix of condition number at
    most 1 + 1e3.  The floor at 1, the level of the identity, keeps delta
    positive where tr(L) rounds to zero or below (the identity, a nearly
    unloaded Q).  Any other Hermitian positive definite system still gets
    a valid preconditioner, one sketched about the level 1 - delta: the
    power iterations then favour the eigenvalues farthest from it on
    either side.

    Parameters
    ----------
    system : SystemMatrix
        Hermitian positive definite system in either domain.  When the
        solve runs in beamspace, pass the transformed system so the
        preconditioner lives in the same coordinates as the iteration.
    rank, power_iters, seed : sketch parameters for randomized_evd.
    counter : FlopCounter, optional.

    Raises
    ------
    InvalidSpectrumError
        If the sketched spectrum has a non-positive eigenvalue or the
        cluster level is non-positive; reciprocals would be meaningless.
    """
    n = system.matrix.shape[0]
    delta = 1e-3 * max(n * (system.sigma2 - 1.0), 1.0)
    sketch = randomized_evd(system.matrix, rank, power_iters, seed,
                            counter=counter, shift=1.0 - delta)
    return from_eigenpairs(sketch.eigvecs, sketch.eigvals, system.sigma2)
