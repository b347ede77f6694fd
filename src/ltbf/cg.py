"""Block conjugate-gradient solver for Q X = I with per-column steps.

All identity columns are driven simultaneously.  Each column j keeps its
own step scalars: alpha_j = (r_j^H z_j)/(p_j^H s_j) and the matching
Fletcher-Reeves beta_j, applied as diagonal column scalings of the shared
direction block.

Each iteration does one N x N product, S = Q P, and updates the residual
recursively as R -= S diag(alpha).  In floating point that recursion
drifts away from the true residual I - Q X, and downstream quality bounds
are stated in terms of the true one, so the stop decision never rests on
the recursive estimate alone.  When the estimate falls below epsilon the
true residual is formed: below epsilon too, the run stops; otherwise it
replaces the recursive residual and the run goes on (residual
replacement, van der Vorst & Ye, SIAM J. Sci. Comput. 22, 2000).  The
true residual is also formed before every return, so a returned state
holds the true residual of its iterate in r and residual_history[-1].

Stopping is on the scaled Frobenius norm ||Q X - I||_F / sqrt(N), so a
run that starts at X = 0 always starts at residual exactly 1.

Callers that need several iterates of one run (a capacity curve over
iteration budgets, the iterates where runs at several tolerances stop)
pass an on_iteration(iterations, x, residual) hook instead of rerunning
the solver per budget.  It is called once per iteration, after that
iteration's residual is recorded and checked for breakdown, with the
recorded value: the recursive estimate unless the true residual was
formed.  A true return value stops the run there; the true residual is
then formed and replaces that entry, as at any other return.  The hook
touches neither the arithmetic nor the stopping rule, so the iterate it
sees at k is bit-identical to the x of a run with max_iters=k, and a run
the hook stops at k ends in the same state as that run.  A hook that
needs a true residual forms it with residual_norm; a run at tolerance
eps without a hook stops at the first iterate where the recorded value
and then the true residual are below eps.  X is rebound to a fresh array
every iteration, so the hook may keep a reference to it without copying.

residual_history is the only per-iteration record a run keeps;
write_trajectory dumps it as the residual trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import fro_norm, gemm

__all__ = [
    "CGConfig",
    "CGState",
    "NumericalBreakdownError",
    "cg_inverse",
    "residual_norm",
    "write_trajectory",
]

_FREEZE_EPS = 1e-300


class NumericalBreakdownError(ArithmeticError):
    """Non-finite value produced by the iteration; carries the index."""

    def __init__(self, iteration, detail=""):
        super().__init__("numerical breakdown at iteration %d %s" % (iteration, detail))
        self.iteration = iteration


@dataclass
class CGConfig:
    """Iteration budget and stopping control.

    max_iters : hard iteration budget, 0 <= max_iters <= 10 * N.
    epsilon : stopping threshold on ||Q X - I||_F / sqrt(N), in (0, 1); a
        run stops on it only when the true residual is below it.
    """

    max_iters: int
    epsilon: float


@dataclass
class CGState:
    """Iterate block and its true residual after the last iteration."""

    x: np.ndarray
    r: np.ndarray
    iterations: int
    residual_history: list = field(default_factory=list)
    frozen: np.ndarray | None = None


def _colwise_dot(a, b, counter):
    if counter is not None:
        counter.add("colwise_dot", a.size, a.size - a.shape[1])
    return np.einsum("ij,ij->j", a.conj(), b)


def _validate(config, n):
    if not (0.0 < config.epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1), got %g" % config.epsilon)
    if not (0 <= config.max_iters <= 10 * n):
        raise ValueError("max_iters must lie in [0, %d], got %d" % (10 * n, config.max_iters))


def _true_residual(q, x, eye, out, counter):
    """I - Q X written into out (allocated when None), and its scaled norm."""
    out = gemm(q, x, counter=counter, out=out)
    np.subtract(eye, out, out=out)
    return out, float(fro_norm(out) / np.sqrt(q.shape[0]))


def cg_inverse(system, preconditioner=None, config=None, counter=None,
               on_iteration=None):
    """Approximate the inverse of a Hermitian positive definite system.

    Parameters
    ----------
    system : SystemMatrix
        The matrix to invert, in whichever domain the caller works.
    preconditioner : object with apply(block, counter), optional
        Typically a LowRankPreconditioner.  None runs plain CG, which is
        identical to preconditioning with any positive multiple of the
        identity.
    config : CGConfig, optional
        Defaults to the full 10N iteration budget at epsilon 1e-6.
    counter : FlopCounter, optional.
    on_iteration : callable(iterations, x, residual), optional
        Called after every iteration with the iteration count, the
        iterate and the scaled residual recorded for it; a true return
        value stops the run after that iteration.  See the module
        docstring.

    Returns
    -------
    CGState whose x field is the approximate inverse, whose r field is
        the true residual I - Q X of that iterate, and whose
        residual_history holds exactly one scaled residual per iteration
        performed: the recursive estimate, except on iterations where the
        estimate passed epsilon and the true residual was formed, and on
        the last one, which always holds the true residual of x.
    """
    q = system.matrix
    n = q.shape[0]
    if config is None:
        config = CGConfig(max_iters=10 * n, epsilon=1e-6)
    _validate(config, n)

    eye = np.eye(n, dtype=np.complex128)
    x = np.zeros((n, n), dtype=np.complex128)
    r = eye.copy()
    if preconditioner is not None:
        z = preconditioner.apply(r, counter=counter)
    else:
        z = r
    p = z.copy()
    rz = _colwise_dot(r, z, counter)
    frozen = np.zeros(n, dtype=bool)
    history = []
    s = None
    t = None  # true residual I - Q X, formed only when needed
    iterations = 0

    for it in range(config.max_iters):
        s = gemm(q, p, counter=counter, out=s)
        ps = _colwise_dot(p, s, counter)
        frozen |= np.abs(ps) < _FREEZE_EPS
        denom = np.where(frozen, 1.0, ps)
        alpha = np.where(frozen, 0.0, rz / denom)
        x = x + p * alpha[None, :]
        r -= s * alpha[None, :]
        if counter is not None:
            counter.add("col_scale", 2 * n * n, 2 * n * n)
        estimate = float(fro_norm(r) / np.sqrt(n))
        iterations = it + 1
        passed = estimate < config.epsilon
        last = iterations == config.max_iters
        res = estimate
        if passed or last:
            t, res = _true_residual(q, x, eye, t, counter)
        history.append(res)
        if not (np.isfinite(estimate) and np.isfinite(res)
                and np.all(np.isfinite(alpha))):
            raise NumericalBreakdownError(iterations, "(residual %r)" % res)
        stop = on_iteration is not None and bool(on_iteration(iterations, x, res))
        if stop and not (passed or last):
            t, history[-1] = _true_residual(q, x, eye, t, counter)
        stop = stop or last or (passed and res < config.epsilon)
        if stop or passed:
            r, t = t, r  # the true residual replaces the recursive one
        if stop:
            break
        if preconditioner is not None:
            z = preconditioner.apply(r, counter=counter)
        else:
            z = r
        rz_new = _colwise_dot(r, z, counter)
        frozen |= np.abs(rz) < _FREEZE_EPS
        denom = np.where(frozen, 1.0, rz)
        beta = np.where(frozen, 0.0, rz_new / denom)
        if np.any(frozen):
            z = np.where(frozen[None, :], 0.0, z)
        p *= beta[None, :]
        p += z
        if counter is not None:
            counter.add("col_scale", n * n, n * n)
        rz = rz_new

    return CGState(x=x, r=r, iterations=iterations, residual_history=history,
                   frozen=frozen)


def residual_norm(system, x, counter=None):
    """Scaled true residual ||Q X - I||_F / sqrt(N) of a candidate inverse."""
    q = system.matrix
    eye = np.eye(q.shape[0], dtype=np.complex128)
    return _true_residual(q, x, eye, None, counter)[1]


def write_trajectory(path, state, config_id):
    """Dump the residual history as CSV rows (iter, residual, config_id)."""
    lines = ["iter,residual,config_id"]
    for i, res in enumerate(state.residual_history):
        lines.append("%d,%s,%s" % (i + 1, repr(float(res)), config_id))
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
