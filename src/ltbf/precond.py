"""Low-rank Woodbury preconditioner for clustered-spectrum systems.

The system matrices handled here are an identity plus a positive
semidefinite loading, Q = I + L, so all but a handful of eigenvalues sit in
a cluster at exactly one.  Approximating the matrix by

    qhat = I + U (Lambda - I) U^H

with (U, Lambda) the top eigenpairs makes qhat invertible in closed form by
the Woodbury identity.  The preconditioner is exactly that inverse, and it
is only ever applied implicitly:

    M R = R - U (w * (U^H R)),   w_k = 1 - 1/lambda_k

evaluated strictly right to left so the cost stays at two thin products
per application instead of an n^2 rebuild.

build_preconditioner finds (U, Lambda) by sketching the loading Q - I plus
a small shift rather than Q, as randomized Nystrom preconditioning does
(Frangella, Tropp & Udell, SIAM J. Matrix Anal. Appl. 44, 2023): the power
iterations then separate the weak modes from a cluster near zero instead
of one at one.  The unit cluster is exact for I + L in either domain (the
beamspace transform is unitary), so the surrogate equals Q whenever the
sketch holds all of L, and CG then needs a single iteration.
from_eigenpairs wraps eigenpairs known in advance about the same cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError
from .randevd import randomized_evd

__all__ = ["DEFAULT_WIDTH", "InvalidSpectrumError", "LowRankPreconditioner",
           "SKETCH_SHIFT", "build_preconditioner", "from_eigenpairs",
           "sketch_width"]

# the sketch runs on L + delta I, delta = SKETCH_SHIFT * max(tr L, 1), so
# each power step has a condition number of at most about 1e6, inside
# CholeskyQR2's stable range, condition numbers up to about u^-1/2 = 1e8
SKETCH_SHIFT = 1e-6
# the sketch width when none is given: min(DEFAULT_WIDTH, N)
DEFAULT_WIDTH = 32


class InvalidSpectrumError(ArithmeticError):
    """The sketched spectrum is unusable (non-positive eigenvalue)."""


@dataclass
class LowRankPreconditioner:
    """Implicit inverse of the low-rank spectral surrogate.

    eigvecs : (n, rank) orthonormal columns of the sketched eigenbasis.
    eigvals : (rank,) positive sketched eigenvalues, descending.
    weights : (rank,) real, 1 - 1/eigvals, precomputed once.
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    weights: np.ndarray

    def apply(self, block, counter=None):
        """Apply the preconditioner to an (n, m) block.

        Never forms the dense operator; two thin products and a diagonal
        scaling, charged to the counter under "precond_apply".  The
        difference is written into the product's block, so the call holds
        one (n, m) block, the one it returns.
        """
        if block.ndim != 2 or block.shape[0] != self.eigvecs.shape[0]:
            raise DimensionMismatchError(
                "block must have %d rows, got shape %s"
                % (self.eigvecs.shape[0], (block.shape,)))
        proj = np.matmul(self.eigvecs.conj().T, block)
        out = np.matmul(self.eigvecs, self.weights[:, None] * proj)
        np.subtract(block, out, out=out)
        if counter is not None:
            n, m = block.shape
            rank = self.eigvals.shape[0]
            counter.add("precond_apply", 2 * rank * n * m + rank * m,
                        2 * rank * n * m + n * m)
        return out


def from_eigenpairs(eigvecs, eigvals):
    """Wrap already-known eigenpairs about the unit cluster, without sketching.

    Useful when the low-rank structure is known exactly, e.g. matrices
    assembled from a prescribed spectrum.  With exact eigenpairs the
    apply() of the result inverts the surrogate exactly.

    Raises
    ------
    InvalidSpectrumError
        If any supplied eigenvalue is non-positive.
    """
    eigvals = np.asarray(eigvals, dtype=np.float64)
    if eigvals.size and float(np.min(eigvals)) <= 0.0:
        raise InvalidSpectrumError(
            "eigenvalue %.3e is not positive" % float(np.min(eigvals)))
    return LowRankPreconditioner(eigvecs=np.asarray(eigvecs, dtype=np.complex128),
                                 eigvals=eigvals, weights=1.0 - 1.0 / eigvals)


def sketch_width(rank, n):
    """The sketch width for an n x n system: rank, or min(DEFAULT_WIDTH, n)
    when rank is None."""
    return min(DEFAULT_WIDTH, n) if rank is None else rank


def build_preconditioner(system, rank, power_iters, seed, counter=None):
    """Sketch the top eigenpairs of a system matrix and wrap them at level 1.

    The system is expected to be an identity plus a positive semidefinite
    loading, Q = I + L, which assemble_q and to_beamspace always produce.
    The power iterations then run on L + delta I = Q - (1 - delta) I
    rather than on Q: each loaded mode 1 + mu of Q shows up as mu + delta,
    far from the unit cluster, which drops to delta.  The Ritz values are
    still those of Q, and the surrogate is I + U (Lambda - I) U^H.  The
    small shift delta keeps the sketch full rank when L has fewer than
    `rank` modes, and is taken relative to the loading,

        delta = SKETCH_SHIFT * max(tr(L), 1),   tr(L) = N (sigma2 - 1),

    so that each power step multiplies by a matrix of condition number at
    most 1 + 1e6, inside CholeskyQR2's range, while delta stays below the
    weak users' modes even on wide SNR ranges.  The floor at 1, the level
    of the identity, keeps delta positive where tr(L) rounds to zero or
    below (the identity, a nearly unloaded Q).  Any other Hermitian
    positive definite system still gets a valid preconditioner, one
    sketched about the level 1 - delta: the power iterations then favour
    the eigenvalues farthest from it on either side.

    Parameters
    ----------
    system : SystemMatrix
        Hermitian positive definite system in either domain.  When the
        solve runs in beamspace, pass the transformed system so the
        preconditioner lives in the same coordinates as the iteration.
    rank : int or None
        Sketch width, 1 <= rank <= N; None takes min(DEFAULT_WIDTH, N).
    power_iters, seed : sketch parameters for randomized_evd.
    counter : FlopCounter, optional.

    Raises
    ------
    InvalidSpectrumError
        If the sketched spectrum has a non-positive eigenvalue; reciprocals
        would be meaningless.
    """
    n = system.matrix.shape[0]
    delta = SKETCH_SHIFT * max(n * (system.sigma2 - 1.0), 1.0)
    sketch = randomized_evd(system.matrix, sketch_width(rank, n), power_iters,
                            seed, counter=counter, shift=1.0 - delta)
    return from_eigenpairs(sketch.eigvecs, sketch.eigvals)
