"""Two-dimensional DFT beamspace transform for square planar arrays.

For a T x T array the transform is the Kronecker product F = F_x kron F_y
of two unitary T-point DFT matrices, applied as a similarity Q_b = F Q F^H.
The spectrum is untouched; what changes is the coordinate system, which
concentrates quasi-plane-wave channel energy into few beams and makes the
transformed matrix numerically sparse.  Solvers run unchanged on Q_b and
the solution maps back as F^H X_b F.

Both directions factor the Kronecker structure through numpy's FFT and
never form F, so they charge nothing to a FlopCounter; their cost is
N^2 log N scalar multiplies against the 2 N^3 of the two dense products.
Each direction is four 1-D passes over the (T, T, T, T) grid of the
matrix, in the axis order numpy's fft2 itself uses (last listed axis
first): axis 1 into a new array, then axes 0, 3 and 2 in place through
`out=`.  Every pass is the same 1-D transform of the same lines that
fft2 and ifft2 make, so the result matches their composition bit for bit;
the first pass allocates, so the caller's array is never written.  Only
the 1-D transforms get `out=`: numpy's ifft2 (2.4) drops its own `out=`
argument and returns a new array, so `out` would keep its input values.
rows_from_beamspace gives a block of rows of the back-mapped matrix,
A F^H X_b F, without forming F^H X_b F: F is symmetric, so A F^H is the
2-D inverse FFT of each row of A reshaped T x T, and W F the forward FFT
of each row of W = (A F^H) X_b, the same ifft/fft pairing from_beamspace
uses.  For an m x N block that is two FFT passes over m x N numbers in
place of four over N x N.
The operator stores only the T x T axis DFT.  Its `f` property builds the
dense N x N F on access (16.8 MB at N = 1024) for the tests' dense
reference route, which the FFT path must match to 1e-11.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatchError
from .scenario import SystemMatrix

__all__ = ["BeamspaceOperator", "build_operator", "to_beamspace",
           "from_beamspace", "rows_from_beamspace", "sparsity_ratio",
           "SPARSITY_THRESHOLD"]

# magnitude, relative to the peak, below which an entry counts as zero
SPARSITY_THRESHOLD = 0.005


@dataclass
class BeamspaceOperator:
    """Unitary 2-D DFT operator for one array side length.

    side : T, the array side; the operator acts on N = T*T coordinates.
    axis_dft : (T, T) unitary one-axis DFT block.
    """

    side: int
    axis_dft: np.ndarray

    @property
    def f(self):
        """(N, N) matrix F_x kron F_y, built per access; the pipeline never
        reads it, but perfbench's tracer reads its nbytes (operator_mb)."""
        return np.kron(self.axis_dft, self.axis_dft)


def build_operator(side):
    """Construct the unitary beamspace operator for a T x T array."""
    if side < 1:
        raise DimensionMismatchError("array side must be >= 1, got %d" % side)
    j = np.arange(side)
    axis = np.exp(-2j * np.pi * np.outer(j, j) / side) / np.sqrt(side)
    return BeamspaceOperator(side=side, axis_dft=axis)


def _as_grid(a, side):
    n = side * side
    if a.shape != (n, n):
        raise DimensionMismatchError(
            "expected a (%d, %d) matrix for side %d, got %s" % (n, n, side, a.shape))
    return a.reshape(side, side, side, side)


def _axis_passes(grid, first, second):
    """second(first(grid, axes (0, 1)), axes (2, 3)) as 1-D passes in
    fft2's order, into one new array."""
    out = first(grid, axis=1)
    first(out, axis=0, out=out)
    second(out, axis=3, out=out)
    second(out, axis=2, out=out)
    return out


def _check_method(method):
    # the one path; the keyword stays for callers that name it, such as
    # perfbench's drops-n64 workload (method="fft")
    if method != "fft":
        raise ValueError("unknown method %r, expected 'fft'" % method)


def to_beamspace(op, system, method="fft"):
    """Transform an antenna-domain system matrix into beamspace, F Q F^H.

    The result is tagged with the beamspace domain; SystemMatrix keeps its
    Hermitian part, which removes the round-off drift of the transform,
    and raises NotFiniteError if the transform overflowed.  The Hermitian
    part is formed in the transform's own output, so the call holds one
    N x N block.  Trace and spectrum are preserved.
    """
    _check_method(method)
    if system.domain != "antenna":
        raise ValueError("to_beamspace expects an antenna-domain system, got %r"
                         % system.domain)
    grid = _as_grid(system.matrix, op.side)
    with np.errstate(over="ignore", invalid="ignore"):  # SystemMatrix rejects it
        qb = _axis_passes(grid, np.fft.fft, np.fft.ifft)
    return SystemMatrix._adopt(qb.reshape(system.matrix.shape), "beamspace")


def from_beamspace(op, x_b, method="fft"):
    """Map a beamspace solution block back to the antenna domain, F^H X_b F."""
    _check_method(method)
    grid = _as_grid(x_b, op.side)
    out = _axis_passes(grid, np.fft.ifft, np.fft.fft)
    return np.ascontiguousarray(out.reshape(x_b.shape))


def rows_from_beamspace(op, rows, x_b):
    """A F^H X_b F for an (m, N) block of rows A, by row FFTs; equals
    rows @ from_beamspace(op, x_b) to rounding."""
    side = op.side
    _as_grid(x_b, side)  # shape check
    n = side * side
    if rows.ndim != 2 or rows.shape[1] != n:
        raise DimensionMismatchError(
            "expected an (m, %d) block of rows for side %d, got %s"
            % (n, side, rows.shape))
    m = rows.shape[0]
    left = np.fft.ifft2(rows.reshape(m, side, side)).reshape(m, n) @ x_b
    return np.fft.fft2(left.reshape(m, side, side)).reshape(m, n)


def sparsity_ratio(a, threshold=SPARSITY_THRESHOLD):
    """Fraction of entries below threshold times the peak magnitude.

    The all-zero matrix is fully sparse by convention (ratio 1.0).
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive, got %g" % threshold)
    peak = float(np.max(np.abs(a))) if a.size else 0.0
    if peak == 0.0:
        return 1.0
    return float(np.mean(np.abs(a) < threshold * peak))
