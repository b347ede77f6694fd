"""Dense complex linear-algebra kernels with nominal operation counting.

Everything here works on numpy complex128 arrays in row-major layout.
as_cmatrix makes such an array at a construction boundary (scenario's
SystemMatrix runs every system matrix through it); the kernels assume
clean input and are pure functions of it.  The only bookkeeping is an
optional FlopCounter that the caller threads through a pipeline to meter
how many complex multiplies a given algorithm performed.  Counts follow the
textbook operation model of each kernel (a matrix product of an m x k by a
k x n block charges exactly m*n*k multiplies), independent of how the
underlying BLAS happens to schedule the arithmetic.

The production kernels (gemm, cholesky, trsm_right_upper_ct,
hermitian_evd_small) run on numpy's BLAS and LAPACK.  The *_oracle kernels
are reference paths for tests and diagnostics, deliberately simple and slow
Python loops: cholesky_oracle (left-looking column loop),
trsm_right_upper_ct_oracle (column substitution) and
hermitian_evd_small_oracle (cyclic Jacobi) are the slow routes each
production kernel is tested against, with the same contracts;
full_evd_oracle (cyclic Jacobi up to dimension 1024) and
direct_inverse_oracle (loop Cholesky and substitution against the identity)
use only those loops, so they stay independent of the randomized pipeline
they are used to check.  The pipeline itself reaches no oracle (the sweep's
exact reference is np.linalg.inv) except on two rare paths: when LAPACK
rejects a Cholesky outright, cholesky asks cholesky_oracle for the failing
index, and a triangular factor LAPACK cannot invert (non-finite entries)
goes through trsm_right_upper_ct_oracle.
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
    "as_cmatrix",
    "fro_norm",
    "gemm",
    "cholesky",
    "trsm_right_upper_ct",
    "hermitian_evd_small",
    "cholesky_oracle",
    "trsm_right_upper_ct_oracle",
    "hermitian_evd_small_oracle",
    "full_evd_oracle",
    "direct_inverse_oracle",
]


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible for the requested kernel."""


class NotHermitianError(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NotFiniteError(ValueError):
    """A matrix contains NaN or infinite entries."""


class CholeskyBreakdownError(ArithmeticError):
    """Cholesky hit a non-positive pivot.  Carries the failing index."""

    def __init__(self, index, pivot):
        super().__init__(
            "cholesky breakdown at pivot %d (value %.3e)" % (index, pivot))
        self.index = index
        self.pivot = pivot


class SingularTriangularError(ArithmeticError):
    """Triangular solve met a zero diagonal entry at the stored index."""

    def __init__(self, index):
        super().__init__("singular triangular factor at diagonal %d" % index)
        self.index = index


class JacobiConvergenceError(RuntimeError):
    """A small eigensolver did not converge (Jacobi sweep budget or LAPACK)."""


class FlopCounter:
    """Accumulator for nominal complex-operation counts.

    One counter is created per call context and explicitly merged by the
    caller; there is no global state.  `mults` and `adds` are totals,
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


def as_cmatrix(a):
    """Coerce input to a 2-D row-major complex128 array, rejecting non-finite
    entries.  Used at construction boundaries, such as SystemMatrix;
    kernels assume clean input."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise DimensionMismatchError("expected a 2-D array, got ndim=%d" % m.ndim)
    if not np.all(np.isfinite(m.view(np.float64))):
        raise NotFiniteError("matrix contains non-finite entries")
    return m


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


def gemm(a, b, conj_a=False, conj_b=False, counter=None, out=None):
    """General complex matrix product with optional conjugate transposition.

    Parameters
    ----------
    a, b : complex ndarray
        Left and right operands.
    conj_a, conj_b : bool
        Apply the conjugate transpose to the respective operand first.
    counter : FlopCounter, optional
        Charged m*n*k multiplies and m*n*(k-1) additions.
    out : complex ndarray of shape (m, n), optional
        Block to write the product into, as numpy.matmul's out; it must
        not overlap either operand.

    Returns
    -------
    complex ndarray of shape (m, n), out when given.
    """
    x = a.conj().T if conj_a else a
    y = b.conj().T if conj_b else b
    if x.ndim != 2 or y.ndim != 2:
        raise DimensionMismatchError("gemm operands must be 2-D")
    if x.shape[1] != y.shape[0]:
        raise DimensionMismatchError(
            "gemm inner dimensions differ: %s vs %s" % (x.shape, y.shape))
    m, k = x.shape
    n = y.shape[1]
    if counter is not None:
        counter.add("gemm", m * n * k, m * n * max(k - 1, 0))
    return np.matmul(x, y, out=out)


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

    LAPACK factorization (numpy.linalg.cholesky).  A pivot diag(l)[j]**2 at
    or below 1e-14 * trace(w) / n raises CholeskyBreakdownError carrying the
    first such index j, which callers use as a rank-deficiency signal; a
    matrix LAPACK rejects outright raises the same error, its index and
    pivot found by cholesky_oracle.

    Parameters
    ----------
    w : (n, n) complex ndarray, Hermitian within 1e-12 relative.
    counter : FlopCounter, optional
        Charged (n^3 - n)/6 + n(n - 1)/2 multiplies, the column algorithm's
        count.

    Returns
    -------
    l : (n, n) complex ndarray, lower triangular with real positive diagonal
        such that l @ l.conj().T reconstructs w.
    """
    _check_hermitian(w, 1e-12, "cholesky input")
    try:
        l = np.linalg.cholesky(w)
    except np.linalg.LinAlgError:
        # LAPACK reports no index; the loop stops at the failing pivot, and
        # should it accept every pivot its factor stands
        return cholesky_oracle(w, counter=counter)
    pivots = np.diagonal(l).real ** 2
    low = np.flatnonzero(pivots <= _pivot_floor(w))
    if low.size:
        raise CholeskyBreakdownError(int(low[0]), float(pivots[low[0]]))
    _charge_cholesky(counter, w.shape[0])
    return l


def cholesky_oracle(w, counter=None):
    """Lower Cholesky factor by the left-looking column loop.

    Reference kernel for cholesky, with the same contract and count: a
    pivot at or below 1e-14 * trace(w) / n raises CholeskyBreakdownError
    at its column.
    """
    _check_hermitian(w, 1e-12, "cholesky input")
    n = w.shape[0]
    floor = _pivot_floor(w)
    l = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        col = w[j:, j] - l[j:, :j] @ l[j, :j].conj()
        pivot = float(col[0].real)
        if pivot <= floor:
            raise CholeskyBreakdownError(j, pivot)
        d = np.sqrt(pivot)
        l[j, j] = d
        l[j + 1:, j] = col[1:] / d
    _charge_cholesky(counter, n)
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
    """
    _check_trsm(y, l)
    try:
        inv = np.linalg.inv(l)
    except np.linalg.LinAlgError:
        # only a factor with non-finite entries or pivots lost to
        # under/overflow gets here; the loop divides through as it is
        return trsm_right_upper_ct_oracle(y, l, counter=counter)
    _charge_trsm(counter, y)
    return np.matmul(y, inv.conj().T)


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


def hermitian_evd_small(b, counter=None):
    """Eigendecomposition of a small Hermitian matrix by LAPACK.

    Intended for the compressed blocks of the randomized pipeline; the
    dimension is capped at 64.  numpy.linalg.eigh runs on the Hermitian
    part of b.  Eigenvalues come back sorted descending, eigenvectors are
    the matching unitary columns.

    Parameters
    ----------
    b : (q, q) complex ndarray, Hermitian within 1e-10 relative, q <= 64.
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
    JacobiConvergenceError
        When LAPACK reports that the eigensolver did not converge.
    """
    _check_small_evd(b, "hermitian_evd_small")
    try:
        vals, vecs = np.linalg.eigh(0.5 * (b + b.conj().T))
    except np.linalg.LinAlgError as err:
        raise JacobiConvergenceError("hermitian eigensolver did not converge") from err
    if counter is not None:
        model = 9 * b.shape[0] ** 3 // 2
        counter.add("jacobi_evd", model, model)
    return vals[::-1].copy(), np.ascontiguousarray(vecs[:, ::-1])


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
    return gemm(z, z, conj_b=True, counter=counter)
