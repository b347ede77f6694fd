"""Block conjugate-gradient solver for Q X = I with per-column steps.

All identity columns are driven simultaneously, in complex128.  Each
column j keeps its own step scalars: alpha_j = (r_j^H z_j)/(p_j^H s_j)
and the matching Fletcher-Reeves beta_j, applied as diagonal column
scalings of the shared direction block.

Each iteration after the first does one N x N product, S = Q P, and
updates the residual recursively as R -= S diag(alpha), which drifts away
from the true residual I - Q X.  The first iteration starts from X_0 = 0,
R_0 = I, whose preconditioned block is P_0 = M^-1 itself; every
preconditioner here is Hermitian, so S_0 = Q P_0 = (M^-1 Q)^H costs one
apply (two thin products for the low-rank one), and plain CG takes
S_0 = Q.  X_1 = P_0 diag(alpha) and R_1 = I - S_0 diag(alpha) then come
from explicit products, so R_1 is the true residual of X_1: iteration 1
is a check at no N x N product and may stop the run.

Downstream bounds are stated in the true residual's scaled norm
||Q X - I||_F / sqrt(N) (1 at X = 0), so one stop rule on it holds for
every caller.  Iteration k forms it (a check) when the
recursive estimate is below epsilon or the attainable-accuracy level
c u ||Q||_F ||X_k||_F / N, c = 8, u = 2^-53 the unit roundoff of
complex128 (Greenbaum, SIAM J. Matrix Anal. Appl. 18, 1997); every
iteration after a check is a check too (iteration 1 turns that on by the
same rule, not by being a check).
The run stops at a check whose true residual is below epsilon
("converged"), at the third check in a row that fails to fall below half
the smallest true residual of the checks before it ("stagnated"), after
max_iters iterations ("budget"), or when the hook returns true ("hook").
The level alone never stops a run short of epsilon, and epsilon = 0 runs
to the attainable accuracy.  Where the estimate is below epsilon and the
run goes on, the true residual replaces the recursive one (residual
replacement, van der Vorst & Ye, SIAM J. Sci. Comput. 22, 2000).
CGState.stop records the cause.  A run returns its last iterate, except
at a "stagnated" stop, where it returns the iterate of the smallest true
residual any check of the run formed (X is rebound every iteration, so
keeping it costs a reference, not a copy).  CGState.residual holds the
scaled true residual of the returned iterate, and residual_history[-1]
that of the last one; at a "stagnated" stop the check that found the
best iterate formed its residual, so no product rebuilds it.

Callers that need several iterates of one run (a capacity curve over
iteration budgets, the iterates where runs at several tolerances stop)
pass an on_iteration(iterations, x, residual) hook instead of rerunning
the solver per budget.  It is called once per iteration, after that
iteration's residual is recorded and checked for breakdown, with the
recorded value: the true residual at iteration 1, at a check and at
max_iters, the recursive estimate otherwise.  A true return value stops
the run there; the true residual then replaces that entry, as at any
other return.  The hook touches neither the arithmetic nor the stop
rule, so the iterate it sees at k is bit-identical to the x of a run at
the same epsilon with max_iters=k whose stop is "budget", "converged"
or "hook" (a run that stagnates at k returns its best checked iterate
instead), and a run the hook stops at k ends in that run's state but for
the stop cause.  residual_norm gives a hook the true residual, and
accuracy_level_scale(system) * ||X_k||_F the level.  X is rebound to a
fresh array every iteration, so the hook may keep a reference to it.

residual_history is the only per-iteration record a run keeps.

The N x N blocks a run holds are Q, P, S, R and X, plus after iteration
1 Z = M^-1 R (R itself in plain CG), the scratch where checks form
I - Q X, and the iterate kept for a "stagnated" stop while X has moved
past it.  No identity or zero block is held: P_0 is M^-1 applied to an
identity that lives for that call, X_1 = P_0 diag(alpha) + 0.0 (the
+ 0.0 turns -0 parts into +0, as 0 + v does), R_1 is formed in S_0's
block, and I - Q X is formed in place, as 1 - y on the diagonal and
0 - y off it.  Every block matches the dense form byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import fro_norm, gemm

__all__ = [
    "CGConfig",
    "CGState",
    "NumericalBreakdownError",
    "accuracy_level_scale",
    "cg_inverse",
    "residual_norm",
]

# a column whose p^H Q p or r^H z falls below this freezes
_FREEZE_EPS = 1e-300
# level c u ||Q||_F ||X_k||_F / N, and the failed checks in a row that
# mean stagnation
_LEVEL_C = 8.0
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
    """Returned iterate, its true residual and the stop cause of a run.

    x is the last iterate, or the best checked one at a "stagnated" stop;
    residual is its scaled true residual ||Q X - I||_F / sqrt(N), 1 for
    the zero iterate of a zero budget.
    """

    x: np.ndarray
    residual: float
    iterations: int
    stop: str
    residual_history: list
    frozen: np.ndarray


def _colwise_dot(a, b, counter):
    """Column dots a_j^H b_j."""
    if counter is not None:
        counter.add("colwise_dot", a.size, a.size - a.shape[1])
    return np.einsum("ij,ij->j", a.conj(), b)


def _validate(config, n):
    if not (0.0 <= config.epsilon < 1.0):
        raise ValueError("epsilon must lie in [0, 1), got %g" % config.epsilon)
    if not (0 <= config.max_iters <= 10 * n):
        raise ValueError("max_iters must lie in [0, %d], got %d" % (10 * n, config.max_iters))


def accuracy_level_scale(system):
    """c u ||Q||_F / N, u = 2^-53, which times ||X_k||_F is the level at
    iterate X_k."""
    q = system.matrix
    unit_roundoff = float(np.finfo(np.complex128).eps) / 2
    return _LEVEL_C * unit_roundoff * fro_norm(q) / q.shape[0]


def _identity_minus(y):
    """Overwrite the square block y with I - y, each entry as
    np.eye(n) - y forms it: 1 - y on the diagonal, 0 - y off it (never
    -y, which differs on +0 parts)."""
    diagonal = 1.0 - np.diagonal(y)
    np.subtract(0.0, y, out=y)
    y.flat[::y.shape[0] + 1] = diagonal
    return y


def _true_residual(q, x, out, counter):
    """I - Q X written into out (allocated when None), and its scaled norm."""
    out = _identity_minus(gemm(q, x, counter=counter, out=out))
    return out, float(fro_norm(out) / np.sqrt(q.shape[0]))


def _first_block(q, preconditioner, counter):
    """P_0 = M^-1 and S_0 = Q P_0 of a run from X_0 = 0.

    Every preconditioner here is Hermitian, so S_0 = (M^-1 Q)^H: one apply
    to Q in place of an N x N product, or Q itself for plain CG (M = I).
    P_0 is M^-1 applied to an identity that lives for the call only.
    S_0 is written into a block of its own, since iteration 1 overwrites
    it with R_1 and an apply may return the block it was given.
    """
    n = q.shape[0]
    if preconditioner is None:
        return np.eye(n, dtype=np.complex128), q.copy()
    p = preconditioner.apply(np.eye(n, dtype=np.complex128), counter=counter)
    s = np.empty((n, n), dtype=np.complex128)
    np.conjugate(preconditioner.apply(q, counter=counter).T, out=s)
    return p, s


def cg_inverse(system, preconditioner=None, *, config, counter=None,
               on_iteration=None):
    """Approximate the inverse of a Hermitian positive definite system.

    Parameters
    ----------
    system : SystemMatrix
        The matrix to invert, in whichever domain the caller works.
    preconditioner : object with apply(block, counter), optional
        Typically a LowRankPreconditioner; it must be Hermitian, since
        iteration 1 forms Q M^-1 as (M^-1 Q)^H.  None runs plain CG, which
        is identical to preconditioning with any positive multiple of the
        identity.  It is applied to I and to Q before iteration 1, then to
        R after every iteration that does not stop the run.
    config : CGConfig
    counter : FlopCounter, optional.
    on_iteration : callable(iterations, x, residual), optional
        Called after every iteration with the iteration count, the
        iterate and the scaled residual recorded for it; a true
        return value stops the run after that iteration.  See the module
        docstring.

    Returns
    -------
    CGState with the iterate x (the last one, or at a "stagnated" stop the
        one of the smallest checked true residual), its scaled true
        residual in residual, the stop cause, and one scaled residual per
        iteration performed in residual_history: the true residual at
        iteration 1, at checks and at the last iteration, the recursive
        estimate otherwise.
    """
    q = system.matrix
    n = q.shape[0]
    _validate(config, n)

    x = None  # X_0 = 0 is never formed; a zero budget returns it
    t = None  # scratch for the true residual I - Q X formed at checks
    history = []
    iterations = 0
    best = np.inf  # smallest true residual of the checks so far
    kept, kept_x = np.inf, None  # smallest true residual formed, its iterate
    stop = "budget"  # a zero budget stops before the first iteration
    scale = accuracy_level_scale(system)
    frozen = np.zeros(n, dtype=bool)
    checking = False  # once an iteration is a check, every later one is
    failed = 0  # checks in a row that failed to halve best

    for it in range(config.max_iters):
        if it == 0:  # X_0 = 0, R_0 = I
            p, s = _first_block(q, preconditioner, counter)
            rz = np.diagonal(p).copy()  # r_j^H z_j = e_j^H P_0 e_j
        else:
            s = gemm(q, p, counter=counter, out=s)
        ps = _colwise_dot(p, s, counter)
        frozen |= np.abs(ps) < _FREEZE_EPS
        denom = np.where(frozen, 1.0, ps)
        alpha = np.where(frozen, 0.0, rz / denom)
        # S diag(alpha) goes into S's block, which the next product
        # overwrites; X is a fresh block every iteration
        x_new = p * alpha[None, :]
        s *= alpha[None, :]
        if it == 0:
            x_new += 0.0  # as 0 + P_0 alpha: -0 parts become +0
            r = _identity_minus(s)  # R_1 = I - S_0 alpha, in S_0's block
            s = None  # S takes a block of its own at iteration 2
        else:
            x_new += x
            r -= s
        x = x_new
        if counter is not None:
            counter.add("col_scale", 2 * n * n, 2 * n * n)
        estimate = float(fro_norm(r) / np.sqrt(n))
        iterations = it + 1
        passed = estimate < config.epsilon
        checking = checking or passed or estimate < scale * fro_norm(x)
        last = iterations == config.max_iters
        res = estimate
        # R_1 = I - S_0 alpha comes from explicit products, not a
        # recursion: the true residual of X_1, a check at no product
        exact = it == 0 or checking or last
        if it > 0 and exact:
            t, res = _true_residual(q, x, t, counter)
        history.append(res)
        if not (np.isfinite(estimate) and np.isfinite(res)
                and np.all(np.isfinite(alpha))):
            raise NumericalBreakdownError(iterations, "(residual %r)" % res)
        if exact and res < kept:
            kept, kept_x = res, x
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
        if stop is not None:
            if not exact:
                t, history[-1] = _true_residual(q, x, t, counter)
            break
        if passed:  # past iteration 1, which converges when it passes
            r[...] = t  # the true residual replaces the recursive one
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

    # a zero budget returns X = 0, whose residual is I
    residual = history[-1] if history else 1.0
    if x is None:
        x = np.zeros((n, n), dtype=np.complex128)
    if stop == "stagnated":
        x, residual = kept_x, kept
    return CGState(x=x, residual=residual, iterations=iterations, stop=stop,
                   residual_history=history, frozen=frozen)


def residual_norm(system, x):
    """Scaled true residual ||Q X - I||_F / sqrt(N) of a candidate inverse."""
    return _true_residual(system.matrix, x, None, None)[1]
