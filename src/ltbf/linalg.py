"""Dense complex linear-algebra kernels with nominal operation counting.

Everything here works on numpy complex128 arrays in row-major layout,
which scenario's SystemMatrix makes of every system matrix; the kernels
are pure functions of their input.  The only bookkeeping is an
optional FlopCounter that the caller threads through a pipeline to meter
how many complex multiplies a given algorithm performed.  Counts follow the
textbook operation model of each kernel (a matrix product of an m x k by a
k x n block charges exactly m*n*k multiplies), independent of how the
underlying BLAS happens to schedule the arithmetic.

The kernels are gemm, cholesky, trsm_right_upper_ct and
hermitian_evd_small, each with one path on numpy's BLAS and LAPACK.  The
slow loop routes each one is tested against live with the tests
(tests/oracles.py), not here.  Two contracts hold at the edges: cholesky,
trsm_right_upper_ct and hermitian_evd_small raise NotFiniteError on a
non-finite input, and cholesky raises CholeskyBreakdownError on a matrix
LAPACK rejects or on a pivot at or below its floor.
"""

from __future__ import annotations

import numpy as np

# Cholesky pivots at or below this times trace / n count as breakdowns
_PIVOT_RTOL = 1e-14

__all__ = [
    "FlopCounter",
    "DimensionMismatchError",
    "NotHermitianError",
    "NotFiniteError",
    "CholeskyBreakdownError",
    "SingularTriangularError",
    "JacobiConvergenceError",
    "fro_norm",
    "gemm",
    "cholesky",
    "trsm_right_upper_ct",
    "hermitian_evd_small",
]


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible for the requested kernel."""


class NotHermitianError(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NotFiniteError(ValueError):
    """A matrix contains NaN or infinite entries."""


class CholeskyBreakdownError(ArithmeticError):
    """Cholesky met a pivot at or below its floor, or LAPACK rejected the
    matrix as not positive definite."""


class SingularTriangularError(ArithmeticError):
    """Triangular solve met a zero diagonal entry at the stored index."""

    def __init__(self, index):
        super().__init__("singular triangular factor at diagonal %d" % index)
        self.index = index


class JacobiConvergenceError(RuntimeError):
    """LAPACK's Hermitian eigensolver in hermitian_evd_small did not converge."""


class FlopCounter:
    """Accumulator for nominal complex-operation counts.

    A caller passes one counter down a call and reads it back; there is no
    global state.  The package never merges counters; only perfbench's
    tracer does, through merge.  `mults` and `adds` are totals,
    `per_kernel` maps a kernel tag to its own [mults, adds] pair.
    """

    def __init__(self):
        self.mults = 0
        self.adds = 0
        self.per_kernel = {}

    def add(self, kernel, mults, adds=0):
        self.mults += int(mults)
        self.adds += int(adds)
        slot = self.per_kernel.setdefault(kernel, [0, 0])
        slot[0] += int(mults)
        slot[1] += int(adds)

    def merge(self, other):
        self.mults += other.mults
        self.adds += other.adds
        for kernel, (m, a) in other.per_kernel.items():
            slot = self.per_kernel.setdefault(kernel, [0, 0])
            slot[0] += m
            slot[1] += a

    def kernel_mults(self, kernel):
        return self.per_kernel.get(kernel, [0, 0])[0]

    def __repr__(self):
        return "FlopCounter(mults=%d, adds=%d, kernels=%s)" % (
            self.mults, self.adds, sorted(self.per_kernel))


def _check_finite(a, what):
    if not np.all(np.isfinite(a)):
        raise NotFiniteError("%s contains non-finite entries" % what)


def fro_norm(a):
    """Frobenius norm of a complex block."""
    return float(np.linalg.norm(a))


def _check_hermitian(a, rtol, what="matrix"):
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError("%s must be square, got %s" % (what, (n, m)))
    scale = fro_norm(a)
    if scale == 0.0:
        return
    if fro_norm(a - a.conj().T) > rtol * scale:
        raise NotHermitianError("%s deviates from Hermitian beyond %g relative" % (what, rtol))


def gemm(a, b, counter=None, out=None):
    """General complex matrix product a b.

    Parameters
    ----------
    a, b : complex ndarray
        Left and right operands.  A caller that wants a^H or b^H passes
        a.conj().T or b.conj().T, a view.
    counter : FlopCounter, optional
        Charged m*n*k multiplies and m*n*(k-1) additions.
    out : complex ndarray of shape (m, n), optional
        Block to write the product into, as numpy.matmul's out; it must
        not overlap either operand.

    Returns
    -------
    complex ndarray of shape (m, n), out when given.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError("gemm operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            "gemm inner dimensions differ: %s vs %s" % (a.shape, b.shape))
    m, k = a.shape
    n = b.shape[1]
    if counter is not None:
        counter.add("gemm", m * n * k, m * n * max(k - 1, 0))
    return np.matmul(a, b, out=out)


def _pivot_floor(w):
    """Pivot at or below which a Cholesky factorization of w breaks down."""
    return _PIVOT_RTOL * float(np.real(np.trace(w))) / max(w.shape[0], 1)


def _charge_cholesky(counter, n):
    # sum over columns j of (n - j) * j for the update, n - j - 1 for the scale
    if counter is not None:
        update = (n ** 3 - n) // 6
        counter.add("cholesky", update + n * (n - 1) // 2, update)


def cholesky(w, counter=None):
    """Lower Cholesky factor of a Hermitian positive definite matrix.

    One LAPACK factorization (numpy.linalg.cholesky).  A matrix LAPACK
    rejects, or a pivot diag(l)[j]**2 at or below 1e-14 * trace(w) / n,
    raises CholeskyBreakdownError, which callers use as a rank-deficiency
    signal; the message names the first such low pivot.

    Parameters
    ----------
    w : (n, n) complex ndarray, Hermitian within 1e-12 relative.
    counter : FlopCounter, optional
        Charged (n^3 - n)/6 + n(n - 1)/2 multiplies, the column algorithm's
        count, also for a factorization that breaks down.

    Returns
    -------
    l : (n, n) complex ndarray, lower triangular with real positive diagonal
        such that l @ l.conj().T reconstructs w.

    Raises
    ------
    NotFiniteError
        When w has a non-finite entry.
    """
    _check_finite(w, "cholesky input")
    _check_hermitian(w, 1e-12, "cholesky input")
    _charge_cholesky(counter, w.shape[0])  # the work is done either way
    try:
        l = np.linalg.cholesky(w)
    except np.linalg.LinAlgError as err:
        raise CholeskyBreakdownError(
            "cholesky input is not positive definite") from err
    pivots = np.diagonal(l).real ** 2
    low = np.flatnonzero(pivots <= _pivot_floor(w))
    if low.size:
        j = low[0]
        raise CholeskyBreakdownError(
            "cholesky breakdown at pivot %d (value %.3e)" % (j, pivots[j]))
    return l


def _check_trsm(y, l):
    if y.ndim != 2 or l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise DimensionMismatchError("trsm expects (n, q) and square (q, q)")
    if l.shape[0] != y.shape[1]:
        raise DimensionMismatchError(
            "trsm dimensions differ: %s vs %s" % (y.shape, l.shape))
    zero = np.flatnonzero(np.diagonal(l) == 0)
    if zero.size:
        raise SingularTriangularError(int(zero[0]))


def _charge_trsm(counter, y):
    if counter is not None:
        n, q = y.shape
        counter.add("trsm", n * q * (q + 1) // 2, n * q * (q + 1) // 2)


def trsm_right_upper_ct(y, l, counter=None):
    """Solve z @ l.conj().T = y for z, with l lower triangular.

    This is the orthogonalization solve of Cholesky QR: the unknown sits on
    the left and the conjugate-transposed factor acts from the right.  The
    q x q factor is inverted by LAPACK and applied in one matrix product.

    Parameters
    ----------
    y : (n, q) complex ndarray.
    l : (q, q) complex ndarray, lower triangular with a nonzero diagonal;
        a zero diagonal entry raises SingularTriangularError at its index.
    counter : FlopCounter, optional
        Charged n * q * (q + 1) / 2 multiplies, the substitution count.

    Returns
    -------
    z : (n, q) complex ndarray.

    Raises
    ------
    NotFiniteError
        When l has a non-finite entry, or pivots LAPACK loses to
        under/overflow, so that its inverse is not finite.
    """
    _check_trsm(y, l)
    _check_finite(l, "triangular factor")
    try:
        inv = np.linalg.inv(l)
    except np.linalg.LinAlgError as err:
        raise NotFiniteError("triangular factor has no finite inverse") from err
    _check_finite(inv, "inverse of the triangular factor")  # subnormal pivots
    _charge_trsm(counter, y)
    return np.matmul(y, inv.conj().T)


def hermitian_evd_small(b, counter=None):
    """Eigendecomposition of a small Hermitian matrix by LAPACK.

    Intended for the compressed blocks of the randomized pipeline.
    numpy.linalg.eigh runs on the Hermitian part of b.  Eigenvalues come back sorted descending, eigenvectors are
    the matching unitary columns.

    Parameters
    ----------
    b : (q, q) complex ndarray, Hermitian within 1e-10 relative.
    counter : FlopCounter, optional
        Charged 9 q^3 // 2 multiplies and as many additions under the
        "jacobi_evd" tag, whatever the entries of b: half the 9 q^3 flops
        of the symmetric QR algorithm with eigenvectors (Golub & Van Loan,
        Matrix Computations, 4th ed., sec. 8.3.5), one multiply per
        multiply-add as gemm counts.

    Returns
    -------
    (vals, vecs) : real (q,) descending and complex (q, q) unitary.

    Raises
    ------
    NotFiniteError
        When b has a non-finite entry.
    JacobiConvergenceError
        When LAPACK reports that the eigensolver did not converge.
    """
    _check_finite(b, "evd input")
    _check_hermitian(b, 1e-10, "evd input")
    try:
        vals, vecs = np.linalg.eigh(0.5 * (b + b.conj().T))
    except np.linalg.LinAlgError as err:
        raise JacobiConvergenceError("hermitian eigensolver did not converge") from err
    if counter is not None:
        model = 9 * b.shape[0] ** 3 // 2
        # perfbench reads this tag as linalg.jacobi_evd.mults
        counter.add("jacobi_evd", model, model)
    return vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])
