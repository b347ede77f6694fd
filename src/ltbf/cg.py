"""Block conjugate-gradient solver for Q X = I with per-column steps.

All identity columns are driven simultaneously.  Each column j keeps its
own step scalars: alpha_j = (r_j^H z_j)/(p_j^H s_j) and the matching
Fletcher-Reeves beta_j, applied as diagonal column scalings of the shared
direction block.

Each iteration does one N x N product, S = Q P, and updates the residual
recursively as R -= S diag(alpha), which drifts away from the true
residual I - Q X.  Downstream bounds are stated in the true residual's
scaled norm ||Q X - I||_F / sqrt(N) (1 at X = 0), so one stop rule on it
holds for every caller.  Iteration k forms it (a check) when the
recursive estimate is below epsilon or the attainable-accuracy level
c u ||Q||_F ||X_k||_F / N, c = 8, u = 2^-53 (Greenbaum, SIAM J. Matrix
Anal. Appl. 18, 1997); every iteration after a check is a check too.
The run stops at a check whose true residual is below epsilon
("converged"), at the third check in a row that fails to fall below half
the smallest true residual of the checks before it ("stagnated"), after
max_iters iterations ("budget"), or when the hook returns true ("hook").
The level alone never stops a run short of epsilon, and epsilon = 0 runs
to the attainable accuracy.  Where the estimate is below epsilon and the
run goes on, the true residual replaces the recursive one (residual
replacement, van der Vorst & Ye, SIAM J. Sci. Comput. 22, 2000).
CGState.stop records the cause; r and residual_history[-1] of a returned
state hold the true residual of its last iterate.

Callers that need several iterates of one run (a capacity curve over
iteration budgets, the iterates where runs at several tolerances stop)
pass an on_iteration(iterations, x, residual) hook instead of rerunning
the solver per budget.  It is called once per iteration, after that
iteration's residual is recorded and checked for breakdown, with the
recorded value: the true residual at a check and at max_iters, the
recursive estimate otherwise.  A true return value stops the run there;
the true residual then replaces that entry, as at any other return.  The
hook touches neither the arithmetic nor the stop rule, so the iterate it
sees at k is bit-identical to the x of a run at the same epsilon with
max_iters=k, and a run the hook stops at k ends in that run's state but
for the stop cause.  residual_norm gives a hook the true residual, and
accuracy_level_scale(system) * ||X_k||_F the level.  X is rebound to a
fresh array every iteration, so the hook may keep a reference to it.

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
    "accuracy_level_scale",
    "cg_inverse",
    "residual_norm",
    "write_trajectory",
]

_FREEZE_EPS = 1e-300
# level c u ||Q||_F ||X_k||_F / N, u of complex128, and the failed checks
# in a row that mean stagnation, as in the module docstring
_LEVEL_C = 8.0
_UNIT_ROUNDOFF = 2.0 ** -53
_STAGNATION_CHECKS = 3


class NumericalBreakdownError(ArithmeticError):
    """Non-finite value produced by the iteration; carries the index."""

    def __init__(self, iteration, detail=""):
        super().__init__("numerical breakdown at iteration %d %s" % (iteration, detail))
        self.iteration = iteration


@dataclass
class CGConfig:
    """Iteration budget and stopping control.

    max_iters : hard iteration budget, 0 <= max_iters <= 10 * N.
    epsilon : tolerance on the true residual ||Q X - I||_F / sqrt(N), in
        [0, 1); 0 runs to the attainable accuracy.
    """

    max_iters: int
    epsilon: float


@dataclass
class CGState:
    """Last iterate, its true residual and the stop cause of a run."""

    x: np.ndarray
    r: np.ndarray
    iterations: int
    stop: str
    residual_history: list = field(default_factory=list)
    frozen: np.ndarray | None = None


def _colwise_dot(a, b, counter):
    if counter is not None:
        counter.add("colwise_dot", a.size, a.size - a.shape[1])
    return np.einsum("ij,ij->j", a.conj(), b)


def _validate(config, n):
    if not (0.0 <= config.epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1), got %g" % config.epsilon)
    if not (0 <= config.max_iters <= 10 * n):
        raise ValueError("max_iters must lie in [0, %d], got %d" % (10 * n, config.max_iters))


def accuracy_level_scale(system):
    """c u ||Q||_F / N, which times ||X_k||_F is the level at iterate X_k."""
    q = system.matrix
    return _LEVEL_C * _UNIT_ROUNDOFF * fro_norm(q) / q.shape[0]


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
    CGState with the last iterate x, its true residual I - Q X in r, the
        stop cause, and one scaled residual per iteration performed in
        residual_history: the true residual at checks and at the last
        iteration, the recursive estimate otherwise.
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
    scale = accuracy_level_scale(system)
    checking = False  # once an iteration is a check, every later one is
    best = np.inf  # smallest true residual of the checks so far
    failed = 0  # checks in a row that failed to halve best
    stop = "budget"  # a zero budget stops before the first iteration

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
        checking = checking or passed or estimate < scale * fro_norm(x)
        last = iterations == config.max_iters
        res = estimate
        if checking or last:
            t, res = _true_residual(q, x, eye, t, counter)
        history.append(res)
        if not (np.isfinite(estimate) and np.isfinite(res)
                and np.all(np.isfinite(alpha))):
            raise NumericalBreakdownError(iterations, "(residual %r)" % res)
        if checking:
            failed = 0 if res < 0.5 * best else failed + 1
            best = min(best, res)
        # a later cause overrides an earlier one
        stop = "budget" if last else None
        if on_iteration is not None and on_iteration(iterations, x, res):
            stop = "hook"
        if failed == _STAGNATION_CHECKS:
            stop = "stagnated"
        if checking and res < config.epsilon:
            stop = "converged"
        if stop is not None and not (checking or last):
            t, history[-1] = _true_residual(q, x, eye, t, counter)
        if stop is not None or passed:
            r, t = t, r  # the true residual replaces the recursive one
        if stop is not None:
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

    return CGState(x=x, r=r, iterations=iterations, stop=stop,
                   residual_history=history, frozen=frozen)


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
