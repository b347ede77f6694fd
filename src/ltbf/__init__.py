"""Low-rank preconditioned block-CG inversion toolkit for long-term
beamforming studies.

The package is organized around the inversion pipeline of a multi-user
system matrix Q = I + sum_i alpha_i * Rbar_i:

- linalg: dense complex kernels on BLAS/LAPACK with operation counting.
- cholqr: CholeskyQR2 orthogonalization of tall-skinny blocks.
- randevd: randomized low-rank eigendecomposition by power iteration.
- precond: the Woodbury-form low-rank preconditioner built from it.
- cg: the block conjugate-gradient inverse solver.
- beamspace: the 2-D DFT similarity transform, by FFT, and sparsity
  metrics.
- scenario: synthetic channel/covariance generation and file I/O.
- evaluation: batched post-combining SINR, capacity and bound checks.
- cli: the gen/invert/sweep/report command-line front end.
"""

from . import linalg
from . import cholqr
from . import randevd
from . import precond
from . import cg
from . import beamspace
from . import scenario
from . import evaluation

__version__ = "0.1.0"
