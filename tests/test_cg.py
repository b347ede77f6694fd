
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from ltbf.cg import (
    CGConfig,
    CGState,
    NumericalBreakdownError,
    _true_residual,
    accuracy_level_scale,
    cg_inverse,
    residual_norm,
)
from ltbf.beamspace import build_operator, to_beamspace
from ltbf.evaluation import write_csv
from ltbf.linalg import FlopCounter, fro_norm
from ltbf.precond import build_preconditioner, from_eigenpairs
from ltbf.scenario import ScenarioConfig, SystemMatrix, assemble_q, generate_scenario
from oracles import direct_inverse_oracle, full_evd_oracle


def dense_system(matrix):
    return SystemMatrix(matrix, "antenna")


def scenario_system(seed, side=8):
    cfg = ScenarioConfig(side=side, subcarriers=32, seed=seed)
    stats, _ = generate_scenario(cfg)
    return assemble_q(stats)


class ScaledIdentityPrecond:
    """Positive multiple of the identity; must reproduce plain CG."""

    def __init__(self, scale):
        self.scale = scale

    def apply(self, block, counter=None):
        return block / self.scale


class PoisonedPrecond:
    """Identity preconditioner whose call number `at` returns one NaN."""

    def __init__(self, at):
        self.at = at
        self.calls = 0

    def apply(self, block, counter=None):
        self.calls += 1
        out = block.copy()
        if self.calls == self.at:
            out[0, 0] = np.nan
        return out


class CheckLog(FlopCounter):
    """Counter that also notes the iterations at which CG formed I - Q X.

    Every iteration charges one column scaling for the x and r updates and,
    when it goes on, one for the direction update; a gemm charged right
    after an odd number of scalings is a true-residual check.
    """

    def __init__(self):
        super().__init__()
        self.scalings = 0
        self.checks = []

    def add(self, kernel, mults, adds=0):
        super().add(kernel, mults, adds)
        if kernel == "col_scale":
            self.scalings += 1
        elif kernel == "gemm" and self.scalings % 2 == 1:
            self.checks.append((self.scalings + 1) // 2)


def stagnation_case():
    """An 8 x 8 system and exact top-four preconditioner whose run at eps
    1.28e-17 stagnates at iteration 7, its best check at iteration 4."""
    vals = np.linspace(1.118, 1.0, 8)
    a, u = helpers.synthetic_hermitian(vals, 2)
    return dense_system(a), from_eigenpairs(u[:, :4], vals[:4])


def numpy_residual(matrix, x):
    n = matrix.shape[0]
    return float(np.linalg.norm(np.eye(n) - matrix @ x) / np.sqrt(n))


class TestConvergence:
    def test_identity_converges_in_one_iteration(self):
        state = cg_inverse(dense_system(np.eye(6)),
                           config=CGConfig(max_iters=10, epsilon=1e-8))
        assert state.iterations == 1
        assert np.array_equal(state.x, np.eye(6, dtype=np.complex128))

    def test_distinct_eigenvalues_finite_termination(self):
        q = np.diag([1.0, 2.0, 4.0]).astype(complex)
        state = cg_inverse(dense_system(q),
                           config=CGConfig(max_iters=10, epsilon=1e-10))
        assert state.iterations <= 3
        assert fro_norm(state.x - np.diag([1.0, 0.5, 0.25])) <= 1e-10

    def test_matches_direct_inverse(self):
        a, _ = helpers.synthetic_hermitian(np.linspace(1.0, 6.0, 24), 300)
        system = dense_system(a)
        state = cg_inverse(system, config=CGConfig(max_iters=240, epsilon=1e-12))
        assert fro_norm(state.x - direct_inverse_oracle(a)) <= 1e-9

    def test_clustered_spectrum_converges_fast(self):
        vals = np.concatenate([np.linspace(25.0, 8.0, 8), np.ones(56)])
        a, _ = helpers.synthetic_hermitian(vals, 301)
        state = cg_inverse(dense_system(a),
                           config=CGConfig(max_iters=640, epsilon=1e-6))
        assert 5 <= state.iterations <= 15

    def test_wider_spectrum_needs_more_iterations(self):
        narrow, _ = helpers.synthetic_hermitian(np.linspace(1.0, 10.0, 64), 302)
        wide, _ = helpers.synthetic_hermitian(np.linspace(1.0, 1000.0, 64), 302)
        cfg = CGConfig(max_iters=640, epsilon=1e-6)
        it_narrow = cg_inverse(dense_system(narrow), config=cfg).iterations
        it_wide = cg_inverse(dense_system(wide), config=cfg).iterations
        assert it_narrow < it_wide

    def test_preconditioning_saves_iterations_on_scenario(self):
        system = scenario_system(3310)
        cfg = CGConfig(max_iters=640, epsilon=1e-3)
        plain = cg_inverse(system, config=cfg)
        precond = build_preconditioner(system, rank=8, power_iters=4, seed=11)
        fast = cg_inverse(system, preconditioner=precond, config=cfg)
        assert plain.iterations >= fast.iterations + 1
        assert residual_norm(system, fast.x) < 1e-3

    def test_scaled_identity_preconditioner_matches_plain(self):
        system = scenario_system(3313)
        mock = ScaledIdentityPrecond(1.7)
        for budget in range(1, 6):
            cfg = CGConfig(max_iters=budget, epsilon=1e-12)
            plain = cg_inverse(system, config=cfg)
            scaled = cg_inverse(system, preconditioner=mock, config=cfg)
            assert fro_norm(plain.x - scaled.x) <= 1e-10


class TestStateAndStopping:
    def test_zero_budget_returns_zero_iterate(self):
        system = scenario_system(3314, side=4)
        state = cg_inverse(system, config=CGConfig(max_iters=0, epsilon=0.5))
        assert state.iterations == 0
        assert np.all(state.x == 0.0)
        assert state.residual == 1.0
        assert state.residual_history == []

    def test_history_one_entry_per_iteration(self):
        system = scenario_system(3315, side=4)
        state = cg_inverse(system, config=CGConfig(max_iters=7, epsilon=1e-15))
        assert state.iterations == 7
        assert len(state.residual_history) == 7
        assert abs(state.residual_history[-1] - residual_norm(system, state.x)) <= 1e-14

    def test_final_residual_below_initial(self):
        system = scenario_system(3316, side=4)
        state = cg_inverse(system, config=CGConfig(max_iters=3, epsilon=1e-15))
        assert state.residual_history[-1] < 1.0

    def test_explicit_residual_consistency(self):
        # the returned residual is that of the recomputed I - Q X, not the
        # recurrence
        system = scenario_system(3317, side=4)
        state = cg_inverse(system, config=CGConfig(max_iters=4, epsilon=1e-15))
        assert abs(state.residual - numpy_residual(system.matrix, state.x)) <= 1e-14

    def test_every_return_holds_true_residual(self):
        system = scenario_system(3317, side=4)
        stagnating, precond = stagnation_case()
        runs = {
            "zero": (system, cg_inverse(
                system, config=CGConfig(max_iters=0, epsilon=1e-15))),
            "budget": (system, cg_inverse(
                system, config=CGConfig(max_iters=4, epsilon=1e-15))),
            "converged": (system, cg_inverse(
                system, config=CGConfig(max_iters=160, epsilon=1e-6))),
            "hook": (system, cg_inverse(
                system, config=CGConfig(max_iters=160, epsilon=1e-15),
                on_iteration=lambda k, x, r: k == 3)),
            "stagnated": (stagnating, cg_inverse(
                stagnating, preconditioner=precond,
                config=CGConfig(max_iters=80, epsilon=1.28e-17))),
        }
        assert {name: state.stop for name, (_, state) in runs.items()} == {
            "zero": "budget", "budget": "budget", "converged": "converged",
            "hook": "hook", "stagnated": "stagnated"}
        assert [runs[k][1].iterations for k in ("zero", "budget", "hook")] == [0, 4, 3]
        for name, (matrix, state) in runs.items():
            # the same product and norm as the solver's check, bit for bit
            assert state.residual == residual_norm(matrix, state.x), name
        for name in ("budget", "converged", "hook"):
            state = runs[name][1]
            assert state.residual == state.residual_history[-1], name

    def test_replacement_when_recursive_residual_passes_eps_early(self):
        # on this scenario the recursive estimate passes 1e-15 one check
        # before the true residual does; stopping on it returns x above eps
        system = scenario_system(3302, side=16)
        n = system.matrix.shape[0]
        eps = 1e-15
        counter = CheckLog()
        state = cg_inverse(system, config=CGConfig(max_iters=10 * n, epsilon=eps),
                           counter=counter)
        assert len(counter.checks) >= 2
        assert counter.checks[0] < state.iterations == counter.checks[-1]
        assert numpy_residual(system.matrix, state.x) < eps
        # one product per iteration after the first, one per check
        assert (counter.kernel_mults("gemm")
                == (state.iterations - 1 + len(counter.checks)) * n ** 3)

    def test_stop_waits_for_the_recursive_estimate(self):
        # at k the true residual is below eps and the estimate is not: the
        # run goes on, and a hook that forms every true residual agrees
        system = scenario_system(3307, side=4)
        n = system.matrix.shape[0]
        k, eps = helpers.lagging_estimate_case(system)
        config = CGConfig(max_iters=10 * n, epsilon=eps)
        plain = cg_inverse(system, config=config)
        trues = []
        hooked = cg_inverse(system, config=config,
                            on_iteration=lambda i, x, r: trues.append(
                                residual_norm(system, x)))
        assert trues[k - 1] < eps
        assert k < plain.iterations == hooked.iterations
        assert hooked.residual_history == plain.residual_history
        assert np.array_equal(hooked.x, plain.x)
        assert numpy_residual(system.matrix, plain.x) < eps

    def test_checks_go_on_after_the_estimate_dips_below_the_level(self):
        # the estimate dips below the accuracy level at iterations 4-5 and
        # then grows tenfold or more per iteration; a run that checked only
        # below the level would never check again and end its 80 iterations
        # at a residual of 3e80
        system, precond = stagnation_case()
        a = system.matrix
        scale = accuracy_level_scale(system)
        levels = []
        state = cg_inverse(system, preconditioner=precond,
                           config=CGConfig(max_iters=80, epsilon=1.28e-17),
                           on_iteration=lambda k, x, r: levels.append(
                               scale * fro_norm(x)))
        history = state.residual_history
        assert history[3] < levels[3] and history[4] < levels[4]
        assert history[4] < history[5] < history[6] and history[6] > 100 * history[4]
        assert (state.iterations, state.stop) == (7, "stagnated")
        assert numpy_residual(a, state.x) < 1e-13

    def test_stagnated_run_returns_its_best_checked_iterate(self):
        # the case above: the checks of iterations 4-7 read 1.3e-16,
        # 1.8e-16, 1.6e-15 and 2.9e-14, and the run returns iteration 4's
        # iterate, not the last one, 220x worse
        system, precond = stagnation_case()
        n = system.matrix.shape[0]
        seen = {}
        counter = CheckLog()
        state = cg_inverse(system, preconditioner=precond,
                           config=CGConfig(max_iters=80, epsilon=1.28e-17),
                           counter=counter,
                           on_iteration=lambda k, x, r: seen.update({k: x}))
        history = state.residual_history
        assert (state.iterations, state.stop) == (7, "stagnated")
        best = int(np.argmin(history)) + 1
        assert best == 4 and history[-1] > 100 * history[best - 1]
        assert np.array_equal(state.x, seen[best])
        # the check at iteration 4 formed the returned residual
        assert state.residual == history[best - 1] < 2e-16
        assert numpy_residual(system.matrix, state.x) < 1e-15
        assert len(history) == state.iterations
        # one product per iteration after the first and one per check: no
        # product rebuilds the returned residual
        assert counter.checks == [4, 5, 6, 7]
        assert (counter.kernel_mults("gemm")
                == (state.iterations - 1 + len(counter.checks)) * n ** 3)

    def test_bitwise_reproducible(self):
        system = scenario_system(3318, side=4)
        cfg = CGConfig(max_iters=6, epsilon=1e-12)
        s1 = cg_inverse(system, config=cfg)
        s2 = cg_inverse(system, config=cfg)
        assert np.array_equal(s1.x, s2.x)
        assert s1.residual_history == s2.residual_history

    @staticmethod
    def _check_freeze(eps):
        q = np.zeros((3, 3), dtype=np.complex128)
        q[:2, :2] = np.array([[2.0, 1.0], [1.0, 2.0]])
        q[2, 2] = 5.0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            state = cg_inverse(dense_system(q),
                               config=CGConfig(max_iters=30, epsilon=eps))
        assert state.frozen is not None and bool(state.frozen[2])
        assert not state.frozen[:2].any()
        assert state.stop == "converged"
        res = numpy_residual(q, state.x)
        assert res < eps
        # ||X - Q^-1||_F <= sqrt(n) res / lambda_min, lambda_min = 1
        err = fro_norm(state.x - direct_inverse_oracle(q))
        assert err <= np.sqrt(3) * res + 1e-12

    def test_converged_column_freezes_without_breakdown(self):
        self._check_freeze(1e-14)

    def test_converged_column_freezes_in_complex64(self):
        # eps = 1e-5 once ran iterations 2 on in complex64; it now runs in
        # complex128 like every eps, and the freeze must hold there too
        self._check_freeze(1e-5)

    @pytest.mark.parametrize("eps", [1e-3, 1e-12])
    def test_nan_from_the_preconditioner_breaks_down_where_it_is_used(self, eps):
        # two applies precede iteration 1 and the fourth follows iteration
        # 2, so iteration 3 takes the NaN
        system = scenario_system(3325, side=4)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalBreakdownError) as err:
                cg_inverse(system, preconditioner=PoisonedPrecond(4),
                           config=CGConfig(max_iters=160, epsilon=eps))
        assert err.value.iteration == 3

    def test_counter_sees_gemm_work(self):
        system = scenario_system(3320, side=4)
        counter = FlopCounter()
        cg_inverse(system, config=CGConfig(max_iters=2, epsilon=1e-12),
                   counter=counter)
        assert counter.kernel_mults("gemm") > 0


def exact_preconditioner(system):
    """All N eigenpairs of the system: M^-1 = Q^-1 to rounding."""
    vals, vecs = np.linalg.eigh(system.matrix)
    return from_eigenpairs(vecs, vals)


class TestFirstIteration:
    """Iteration 1 from X_0 = 0: no N x N product, a free check."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(2, 24), log_kappa=st.floats(0.0, 4.0),
           kind=st.sampled_from(["plain", "scaled", "eigenpairs", "other-basis"]),
           eps=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
           rank=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_recorded_residual_is_the_true_one(self, n, log_kappa, kind, eps,
                                               rank, seed):
        rng = np.random.default_rng(seed)
        inner = 10.0 ** rng.uniform(0.0, log_kappa, n - 2)
        vals = np.sort(np.concatenate([[10.0 ** log_kappa, 1.0], inner]))[::-1]
        a, u = helpers.synthetic_hermitian(vals, seed)
        system = dense_system(a)
        k = min(rank, n)
        precond = {"plain": None,
                   "scaled": ScaledIdentityPrecond(10.0 ** rng.uniform(-1.0, 1.0)),
                   "eigenpairs": from_eigenpairs(u[:, :k], vals[:k]),
                   # a Hermitian M that does not commute with Q
                   "other-basis": from_eigenpairs(
                       helpers.random_unitary_columns(n, k, seed + 1),
                       vals[:k]),
                   }[kind]
        seen = {}
        cg_inverse(system, preconditioner=precond,
                   config=CGConfig(max_iters=10 * n, epsilon=eps),
                   on_iteration=lambda i, x, r: seen.setdefault(i, (x, r)))
        x1, recorded = seen[1]
        # R_1 and numpy's I - Q X_1 round differently, by at most 2 n u ...
        # in 20,000 random trials; 4 n u leaves room
        rounding = 4 * n * 2.0 ** -53 * fro_norm(a) * fro_norm(x1) / np.sqrt(n)
        assert abs(recorded - residual_norm(system, x1)) <= rounding

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_exact_preconditioner_stops_at_iteration_one(self, seed):
        # iteration 1 of an exact preconditioner is Q^-1 to rounding, its
        # true residual near 1e-15
        system = scenario_system(seed, side=4)
        state = cg_inverse(system, preconditioner=exact_preconditioner(system),
                           config=CGConfig(max_iters=160, epsilon=1e-6))
        assert (state.iterations, state.stop) == (1, "converged")
        assert numpy_residual(system.matrix, state.x) <= 1e-12

    def test_stop_at_iteration_one_forms_no_product(self):
        system = scenario_system(1, side=4)
        precond = exact_preconditioner(system)
        for pre, matrix in ((precond, system), (None, dense_system(np.eye(6)))):
            counter = FlopCounter()
            n = matrix.matrix.shape[0]
            state = cg_inverse(matrix, preconditioner=pre,
                               config=CGConfig(max_iters=10 * n, epsilon=1e-6),
                               counter=counter)
            assert (state.iterations, state.stop) == (1, "converged")
            assert counter.kernel_mults("gemm") == 0
            assert counter.mults > 0

    @pytest.mark.parametrize("eps", [1e-3, 1e-12])
    @pytest.mark.parametrize("at", [1, 2])
    def test_nan_from_the_first_applies_breaks_down_at_iteration_one(self, at, eps):
        # applies 1 and 2 form P_0 = M^-1 I and S_0 = (M^-1 Q)^H
        system = scenario_system(3325, side=4)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalBreakdownError) as err:
                cg_inverse(system, preconditioner=PoisonedPrecond(at),
                           config=CGConfig(max_iters=160, epsilon=eps))
        assert err.value.iteration == 1

    @pytest.mark.parametrize("eps", [1e-3, 1e-12])
    @pytest.mark.parametrize("kind", ["plain", "returns-its-input", "low-rank"])
    def test_system_matrix_left_unchanged(self, kind, eps):
        # later iterations write S in place, so S_0 must not be Q or a block
        # an apply returned
        system = scenario_system(3326, side=4)
        before = system.matrix.tobytes()
        precond = {"plain": None, "returns-its-input": helpers.DtypeLog(),
                   "low-rank": build_preconditioner(system, rank=4,
                                                    power_iters=2, seed=1),
                   }[kind]
        state = cg_inverse(system, preconditioner=precond,
                           config=CGConfig(max_iters=160, epsilon=eps))
        assert state.iterations > 1
        assert system.matrix.tobytes() == before


def diagonal_system():
    """A diagonal Q with entries of both signs: every off-diagonal entry is
    an exact zero, and the negative steps of plain CG give X_1 -0 parts."""
    return dense_system(np.diag([3.0, -7.0, 0.3, 11.0, -0.6, 5.0]))


def dense_form_case(case, precond):
    """(system, preconditioner or None) of the dense-form comparisons."""
    if case == "diagonal":
        system = diagonal_system()
        # coordinate eigenvectors keep P_0 diagonal, its zeros exact
        pre = from_eigenpairs(np.eye(6)[:, :2], [5.0, 0.25])
    else:
        system = scenario_system(3327, side=4)
        pre = build_preconditioner(system, rank=4, power_iters=2, seed=1)
    return system, pre if precond == "low-rank" else None


class TestDenseForms:
    """cg_inverse forms in place what the oracles form with an explicit
    zero or identity block, byte for byte, signed zeros included."""

    @pytest.mark.parametrize("iters", [1, 3])
    @pytest.mark.parametrize("precond", ["plain", "low-rank"])
    @pytest.mark.parametrize("case", ["diagonal", "scenario"])
    def test_run_matches_the_dense_forms(self, case, precond, iters):
        system, pre = dense_form_case(case, precond)
        state = cg_inverse(system, preconditioner=pre,
                           config=CGConfig(max_iters=iters, epsilon=0.0))
        x, resid = oracles.block_cg_oracle(system.matrix, pre, iters)
        assert state.stop == "budget"
        assert state.x.tobytes() == x.tobytes()
        n = system.matrix.shape[0]
        assert state.residual == fro_norm(resid) / np.sqrt(n)

    def test_diagonal_case_holds_the_signed_zeros(self):
        # plain CG's first step on it: P_0 = I, S_0 = Q
        q = diagonal_system().matrix
        eye = np.eye(6, dtype=np.complex128)
        alpha = np.diagonal(eye) / np.einsum("ij,ij->j", eye.conj(), q)
        # -0 parts, which 0 + v turns into +0
        assert np.signbit((eye * alpha[None, :]).real).any()
        # +0 parts, where -v would write -0 and 0 - v writes +0
        step = q * alpha[None, :]
        assert (-step).tobytes() != (0.0 - step).tobytes()

    @pytest.mark.parametrize("case", ["diagonal", "scenario"])
    def test_true_residual_matches_the_dense_form(self, case):
        system, _ = dense_form_case(case, "plain")
        q = system.matrix
        x = cg_inverse(system, config=CGConfig(max_iters=3, epsilon=0.0)).x
        resid, norm = _true_residual(q, x, None, None)
        want = oracles.identity_minus_product_oracle(q, x)
        assert resid.tobytes() == want.tobytes()
        assert norm == fro_norm(want) / np.sqrt(q.shape[0])
        # written into the scratch block it is given
        scratch = np.empty_like(q)
        assert _true_residual(q, x, scratch, None)[0] is scratch
        assert scratch.tobytes() == want.tobytes()


class TestWorkingSet:
    """N x N blocks a run holds above Q, at side 16 (N = 256); each bound
    sits over the figure measured here, with the parent's in its comment."""

    @pytest.fixture(scope="class")
    def system(self):
        return helpers.side16_system()[1]

    def test_one_iteration_low_rank_run(self, system):
        pre = build_preconditioner(system, rank=None, power_iters=2, seed=1)
        config = CGConfig(max_iters=1, epsilon=0.0)
        # P_0, S_0 (then R_1) and X_1, plus one apply's output at a time;
        # 7.13 with a held identity, a zero X_0 and temporaries
        assert helpers.peak_blocks(
            lambda: cg_inverse(system, pre, config=config),
            system.matrix.nbytes) <= 3.5

    def test_plain_multi_iteration_run(self, system):
        config = CGConfig(max_iters=12, epsilon=0.0)
        # P, S, R, X, X_1 kept for a stagnated stop, and the next X or the
        # check scratch; 7.15 with a held identity and temporaries
        assert helpers.peak_blocks(
            lambda: cg_inverse(system, config=config),
            system.matrix.nbytes) <= 6.5

    def test_residual_norm(self, system):
        x = np.eye(system.matrix.shape[0], dtype=np.complex128)
        # the product's block only; 2.00 with an explicit identity
        assert helpers.peak_blocks(lambda: residual_norm(system, x),
                                   system.matrix.nbytes) <= 1.5


def hard_loading(seed=1):
    """Beamspace side-8 system over -10..50 dB with its q=16 p=4 sketch, the
    widest loading of these tests."""
    cfg = ScenarioConfig(side=8, n_ue=8, snr_db_low=-10.0, snr_db_high=50.0,
                         subcarriers=64, seed=seed)
    stats, _ = generate_scenario(cfg)
    system = to_beamspace(build_operator(8), assemble_q(stats))
    return system, build_preconditioner(system, rank=16, power_iters=4, seed=seed)


class TestWorkingPrecision:
    """One working precision, complex128, at every eps."""

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 9.99e-7, 1e-9])
    def test_precision_follows_eps_and_iterates_stay_complex128(self, eps):
        # every apply and every iterate is complex128, whatever the eps
        system = scenario_system(3324)
        log = helpers.DtypeLog()
        seen = []
        state = cg_inverse(system, preconditioner=log,
                           config=CGConfig(max_iters=640, epsilon=eps),
                           on_iteration=lambda k, x, r: seen.append(x.dtype))
        assert len(log.dtypes) == state.iterations + 1
        assert set(log.dtypes) == {np.dtype(np.complex128)}
        assert state.x.dtype == np.complex128
        assert set(seen) == {np.dtype(np.complex128)}
        assert state.stop == "converged"
        assert numpy_residual(system.matrix, state.x) < eps

    @pytest.mark.parametrize("case", ["loading", "spectrum"])
    def test_floor_above_eps_converges_through_complex128(self, case):
        # a wide loading and a condition number of 1e6 reach eps without
        # stagnating; the loading takes 6, 9 and 10 iterations on seeds 1-3
        eps = 1e-6
        if case == "loading":
            cases = [hard_loading(seed) for seed in (1, 2, 3)]
        else:  # condition number 1e6, exact top eigenpairs
            vals = np.geomspace(1e6, 1.0, 32)
            a, u = helpers.synthetic_hermitian(vals, 7)
            system = dense_system(a)
            cases = [(system, from_eigenpairs(u[:, :4], vals[:4]))]
        for system, precond in cases:
            n = system.matrix.shape[0]
            state = cg_inverse(system, preconditioner=precond,
                               config=CGConfig(max_iters=10 * n, epsilon=eps))
            assert state.stop == "converged"
            assert numpy_residual(system.matrix, state.x) < eps
            if case == "loading":
                assert state.iterations <= 10


class TestIterationHook:
    """The hook route against the restart route: separate runs per budget."""

    def test_iterate_at_k_equals_truncated_run(self):
        system = scenario_system(3301)
        # a narrow surrogate, the exact top two eigenpairs: the run at 1e-16
        # stagnates at 17, past every budget
        vals, vecs = np.linalg.eigh(system.matrix)
        precond = from_eigenpairs(vecs[:, :-3:-1], vals[:-3:-1])
        budgets = {1, 2, 5, 9, 13}
        seen = {}

        def keep(iterations, x, residual):
            if iterations in budgets:
                seen[iterations] = x

        cg_inverse(system, preconditioner=precond,
                   config=CGConfig(max_iters=max(budgets), epsilon=1e-16),
                   on_iteration=keep)
        assert sorted(seen) == sorted(budgets)
        for k in budgets:
            alone = cg_inverse(system, preconditioner=precond,
                               config=CGConfig(max_iters=k, epsilon=1e-16))
            assert alone.stop == "budget"
            assert np.array_equal(seen[k], alone.x), k

    def test_fires_once_per_iteration_with_history_values(self):
        system = scenario_system(3302)
        calls = []
        state = cg_inverse(system, config=CGConfig(max_iters=100, epsilon=1e-8),
                           on_iteration=lambda k, x, r: calls.append((k, r)))
        assert state.iterations < 100
        assert [k for k, _ in calls] == list(range(1, state.iterations + 1))
        assert [r for _, r in calls] == state.residual_history

    def test_true_return_stops_like_a_budget(self):
        system = scenario_system(3303)
        config = CGConfig(max_iters=100, epsilon=1e-16)
        stopped = cg_inverse(system, config=config,
                             on_iteration=lambda k, x, r: k == 4)
        budget = cg_inverse(system, config=CGConfig(max_iters=4, epsilon=1e-16))
        assert stopped.iterations == 4
        assert stopped.residual_history == budget.residual_history
        assert stopped.residual == budget.residual
        for name in ("x", "frozen"):
            assert np.array_equal(getattr(stopped, name),
                                  getattr(budget, name)), name

    def test_zero_budget_never_calls_hook(self):
        calls = []
        cg_inverse(dense_system(np.eye(4)),
                   config=CGConfig(max_iters=0, epsilon=1e-8),
                   on_iteration=lambda *a: calls.append(a))
        assert calls == []


class TestValidation:
    @pytest.mark.parametrize("eps", [-1e-300, 1.0, -0.5, 2.0])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError):
            cg_inverse(dense_system(np.eye(4)),
                       config=CGConfig(max_iters=4, epsilon=eps))

    @pytest.mark.parametrize("iters", [-1, 41])
    def test_max_iters_range(self, iters):
        with pytest.raises(ValueError):
            cg_inverse(dense_system(np.eye(4)),
                       config=CGConfig(max_iters=iters, epsilon=1e-3))

    def test_non_finite_input_breaks_down_with_index(self):
        # NaN is rejected when the SystemMatrix is built; this finite Q
        # passes construction and overflows in the first iteration
        q = np.array([[1e160, 1e155j], [-1e155j, 1.0]])
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            with pytest.raises(NumericalBreakdownError) as err:
                cg_inverse(dense_system(q),
                           config=CGConfig(max_iters=4, epsilon=1e-3))
        assert err.value.iteration == 1


class TestResidualNorm:
    def test_zero_iterate_gives_exactly_one(self):
        system = dense_system(np.diag([2.0, 3.0, 4.0]))
        assert residual_norm(system, np.zeros((3, 3), dtype=complex)) == 1.0

    def test_exact_inverse_gives_zero(self):
        a, _ = helpers.synthetic_hermitian([4.0, 2.0, 1.0, 0.5], 303)
        system = dense_system(a)
        assert residual_norm(system, direct_inverse_oracle(a)) <= 1e-12

    def test_agrees_with_direct_evaluation(self):
        a, _ = helpers.synthetic_hermitian([5.0, 3.0, 2.0], 304)
        system = dense_system(a)
        x = helpers.random_complex((3, 3), 305)
        naive = np.linalg.norm(a @ x - np.eye(3)) / np.sqrt(3.0)
        assert abs(residual_norm(system, x) - naive) <= 1e-14


class TestAccuracyLevel:
    def test_scale_is_8u_times_the_frobenius_norm_over_n(self):
        a, _ = helpers.synthetic_hermitian([5.0, 3.0, 2.0], 306)
        expect = 8.0 * 2.0 ** -53 * np.linalg.norm(a) / 3.0
        assert accuracy_level_scale(dense_system(a)) == pytest.approx(expect, rel=1e-15)


class TestIterationBound:
    def test_orders_scenarios_by_conditioning(self):
        cfg = CGConfig(max_iters=640, epsilon=1e-6)
        rows = []
        for low, high in [(0.0, 0.0), (-6.0, 14.0)]:
            scen = ScenarioConfig(side=8, snr_db_low=low, snr_db_high=high,
                                  subcarriers=32, seed=3321)
            stats, _ = generate_scenario(scen)
            system = assemble_q(stats)
            vals, _ = full_evd_oracle(system.matrix)
            kappa = float(vals[0] / vals[-1])
            iters = cg_inverse(system, config=cfg).iterations
            rows.append((kappa, iters))
        assert rows[1][0] > rows[0][0]
        assert rows[1][1] >= rows[0][1]


class TestTrajectoryDump:
    def test_row_per_iteration(self, tmp_path):
        # the residual trace is residual_history written through write_csv
        system = scenario_system(3322, side=4)
        state = cg_inverse(system, config=CGConfig(max_iters=5, epsilon=1e-15))
        path = tmp_path / "trace.csv"
        write_csv(path, "iter,residual,config_id",
                  ((k, res, "demo_run") for k, res
                   in enumerate(state.residual_history, start=1)))
        lines = path.read_text(encoding="ascii").strip().split("\n")
        assert lines[0] == "iter,residual,config_id"
        assert len(lines) == 1 + state.iterations
        first = lines[1].split(",")
        assert first[0] == "1" and first[2] == "demo_run"
        assert float(first[1]) == state.residual_history[0]


class TestAgainstDirectInverse:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(2, 24), log_kappa=st.floats(0.0, 4.0),
           log_eps=st.floats(-10.0, -3.0), preconditioned=st.booleans(),
           rank=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_stops_below_eps_on_hermitian_positive_definite(
            self, n, log_kappa, log_eps, preconditioned, rank, seed):
        rng = np.random.default_rng(seed)
        kappa, eps = 10.0 ** log_kappa, 10.0 ** log_eps
        inner = 10.0 ** rng.uniform(0.0, log_kappa, n - 2)
        vals = np.sort(np.concatenate([[kappa, 1.0], inner]))[::-1]
        a, u = helpers.synthetic_hermitian(vals, seed)
        system = dense_system(a)
        precond = None
        if preconditioned:  # exact top eigenpairs
            k = min(rank, n)
            precond = from_eigenpairs(u[:, :k], vals[:k])
        max_iters = 10 * n
        state = cg_inverse(system, preconditioner=precond,
                           config=CGConfig(max_iters=max_iters, epsilon=eps))
        res = numpy_residual(a, state.x)
        if state.iterations < max_iters:
            assert res < eps
        # X - Q^-1 = Q^-1 (Q X - I), so ||X - Q^-1||_F <= sqrt(n) res / lambda_min
        err = fro_norm(state.x - direct_inverse_oracle(a))
        assert err <= np.sqrt(n) * res / vals[-1] * (1.0 + 1e-6) + 1e-10

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(2, 24), log_kappa=st.floats(0.0, 4.0),
           eps=st.one_of(st.just(0.0),
                         st.floats(-20.0, -3.0).map(lambda e: 10.0 ** e)),
           preconditioned=st.booleans(), rank=st.integers(1, 24),
           seed=st.integers(0, 2**32 - 1))
    def test_stop_cause_matches_the_returned_state(
            self, n, log_kappa, eps, preconditioned, rank, seed):
        rng = np.random.default_rng(seed)
        kappa = 10.0 ** log_kappa
        inner = 10.0 ** rng.uniform(0.0, log_kappa, n - 2)
        vals = np.sort(np.concatenate([[kappa, 1.0], inner]))[::-1]
        a, u = helpers.synthetic_hermitian(vals, seed)
        system = dense_system(a)
        precond = None
        if preconditioned:  # exact top eigenpairs
            k = min(rank, n)
            precond = from_eigenpairs(u[:, :k], vals[:k])
        max_iters = 10 * n
        state = cg_inverse(system, preconditioner=precond,
                           config=CGConfig(max_iters=max_iters, epsilon=eps))
        res = numpy_residual(a, state.x)
        assert state.stop in ("converged", "stagnated", "budget")
        if state.stop == "converged":
            # the solver's own true residual is below eps; numpy forms the
            # same residual with other roundings, bounded by 4 n u ||Q|| ||X||
            assert state.residual < eps
            rounding = 4 * n * 2.0 ** -53 * fro_norm(a) * fro_norm(state.x)
            assert res < eps + rounding / np.sqrt(n)
        else:
            # a tolerance out of reach still ends at the attainable accuracy
            assert res <= 1e-10
        if state.stop == "budget":
            assert state.iterations == max_iters


class TestKappaGrowth:
    def test_alpha_scaling_raises_condition_number(self):
        cfg = ScenarioConfig(side=8, subcarriers=32, seed=3323)
        stats, _ = generate_scenario(cfg)
        system = assemble_q(stats)
        vals, _ = full_evd_oracle(system.matrix)
        kappa = float(vals[0] / vals[-1])

        boosted = [type(s)(covariance=s.covariance, alpha=10.0 * s.alpha,
                           symbol_energy=s.symbol_energy) for s in stats]
        system10 = assemble_q(boosted)
        vals10, _ = full_evd_oracle(system10.matrix)
        kappa10 = float(vals10[0] / vals10[-1])
        ratio = kappa10 / kappa
        assert 5.0 <= ratio <= 15.0
