import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
import ltbf.cli as cli
import ltbf.evaluation as evaluation
import oracles
from ltbf.cg import CGConfig, cg_inverse, residual_norm
from ltbf.evaluation import (
    _spectral_norm,
    build_projector,
    build_projectors,
    capacity,
    capacity_vs_iterations,
    check_sinr_bound,
    inverse_error,
    scenario_gammas,
    sinr_cdf,
    write_csv,
)
from ltbf.beamspace import build_operator, from_beamspace, to_beamspace
from ltbf.precond import build_preconditioner
from ltbf.scenario import (ScenarioConfig, SystemMatrix, assemble_q,
                           generate_scenario, save_scenario, steering_vector)

from helpers import (accuracy_stops, capacity_scorer, einsum_gammas_oracle,
                     lagging_estimate_case, mmse_baseline_sinr,
                     post_beamforming_sinr, restart_capacity_oracle,
                     small_scenario_config, stagnating_case)
from oracles import direct_inverse_oracle


@pytest.fixture(scope="module")
def scene():
    cfg = small_scenario_config()
    stats, channels = generate_scenario(cfg)
    system = assemble_q(stats)
    xinv = direct_inverse_oracle(system.matrix)
    g0 = scenario_gammas(stats, channels, xinv, cfg.noise_psd)
    return cfg, stats, channels, system, xinv, g0


class TestProjector:
    def test_rank_one_covariance_recovers_steering_direction(self):
        a = steering_vector(2, 0.3, -0.1)
        basis = build_projector(np.outer(a, a.conj()), 1)
        # single dominant eigenvector, defined up to a phase
        assert abs(abs(np.vdot(basis[:, 0], a / 2.0)) - 1.0) <= 1e-12

    def test_columns_orthonormal_and_ordered(self, scene):
        _, stats, _, _, _, _ = scene
        basis = build_projector(stats[0].covariance, 4)
        gram = basis.conj().T @ basis
        assert np.linalg.norm(gram - np.eye(4)) <= 1e-12
        captured = np.real(np.diag(basis.conj().T @ stats[0].covariance @ basis))
        assert np.all(np.diff(captured) <= 1e-12)

    @pytest.mark.parametrize("rank", [0, 17, -1])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ValueError):
            build_projector(np.eye(16, dtype=complex), rank)


class TestInverseError:
    def test_zero_inverse_scores_one(self, scene):
        _, _, _, system, _, _ = scene
        n = system.matrix.shape[0]
        fro, spec = inverse_error(system, np.zeros((n, n), dtype=complex))
        assert fro == 1.0
        assert abs(spec - 1.0) <= 1e-12

    def test_exact_inverse_scores_zero(self, scene):
        _, _, _, system, xinv, _ = scene
        fro, spec = inverse_error(system, xinv)
        assert fro <= 1e-12
        assert spec <= 1e-12

    def test_frobenius_figure_matches_stopping_rule(self, scene):
        _, _, _, system, _, _ = scene
        state = cg_inverse(system, config=CGConfig(max_iters=3, epsilon=1e-16))
        fro, _ = inverse_error(system, state.x)
        assert abs(fro - state.residual_history[-1]) <= 1e-12

    def test_zero_residual_is_exactly_zero(self):
        eye = np.eye(9, dtype=complex)
        assert inverse_error(SystemMatrix(eye, "antenna"), eye) == (0.0, 0.0)
        assert _spectral_norm(np.zeros((9, 9), dtype=complex)) == 0.0

    def test_nan_residual_raises_linalg_error(self, scene):
        # the CLI maps LinAlgError to exit code 3
        _, _, _, system, xinv, _ = scene
        xbad = xinv.copy()
        xbad[3, 5] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            inverse_error(system, xbad)
        assert np.linalg.LinAlgError in cli._NUMERICAL_ERRORS

    @staticmethod
    def spectral_spy(monkeypatch):
        """Record the block inverse_error hands to _spectral_norm and the
        tracemalloc peak reached by then."""
        seen = {}

        def spy(a):
            if tracemalloc.is_tracing():
                seen["peak"] = tracemalloc.get_traced_memory()[1]
            seen["resid"] = a.copy()
            return _spectral_norm(a)

        monkeypatch.setattr(evaluation, "_spectral_norm", spy)
        return seen

    @pytest.mark.parametrize("case", ["diagonal", "scenario"])
    def test_residual_matches_the_dense_form(self, case, scene, monkeypatch):
        if case == "diagonal":
            # exact zeros off the diagonal, with -0 parts in X
            system = SystemMatrix(np.diag([3.0, -7.0, 0.3, 11.0]), "antenna")
            x = np.diag(1.0 / np.array([3.0, -7.0, 0.3, 11.0])).astype(complex)
            x[0, 1] = -0.0
        else:
            system = scene[3]
            x = cg_inverse(system, config=CGConfig(max_iters=3,
                                                   epsilon=0.0)).x
        seen = self.spectral_spy(monkeypatch)
        fro, spec = inverse_error(system, x)
        want = oracles.product_minus_identity_oracle(system.matrix, x)
        assert seen["resid"].tobytes() == want.tobytes()
        n = system.matrix.shape[0]
        assert (fro, spec) == (float(np.linalg.norm(want)) / np.sqrt(n),
                               _spectral_norm(want))

    def test_residual_is_formed_in_the_product_block(self, monkeypatch):
        _, system = helpers.side16_system()
        x = np.eye(system.matrix.shape[0], dtype=np.complex128)
        seen = self.spectral_spy(monkeypatch)
        helpers.peak_blocks(lambda: inverse_error(system, x),
                            system.matrix.nbytes)
        # up to the Gram route, which adds a conjugate copy and the Gram
        # matrix on top: 3.00 with an explicit identity and the product
        assert seen["peak"] / system.matrix.nbytes <= 1.5

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 24), rank=st.integers(1, 24),
           log_scale=st.floats(-12.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_gram_norm_matches_svd_property(self, n, rank, log_scale, seed):
        # sqrt of the Gram's top eigenvalue against the largest singular
        # value, over sizes, ranks and scales
        rng = np.random.default_rng(seed)
        k = min(rank, n)
        left = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        right = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        e = 10.0 ** log_scale * (left @ right)
        want = np.linalg.norm(e, 2)
        assert abs(_spectral_norm(e) - want) <= 1e-12 * want


class TestScenarioGammas:
    def test_exact_inverse_gives_positive_finite_sinr(self, scene):
        cfg, _, _, _, _, g0 = scene
        assert g0.shape == (cfg.n_ue, cfg.subcarriers, cfg.n_streams)
        assert np.all(g0 > 0.0)
        assert np.all(np.isfinite(g0))

    def test_zero_inverse_receives_nothing(self, scene):
        cfg, stats, channels, _, _, _ = scene
        n = cfg.n_antennas
        g = scenario_gammas(stats, channels, np.zeros((n, n), dtype=complex),
                            cfg.noise_psd)
        assert np.all(g == 0.0)

    def test_matches_explicit_beamformed_quotient(self, scene):
        # rebuild one resource element by hand and push it through the
        # term-by-term quotient, which shares no code with the batched path
        cfg, stats, channels, _, xinv, g0 = scene
        big_h = np.concatenate([ch.h for ch in channels], axis=2)
        energies = np.array([st.symbol_energy for st in stats])
        for user in range(cfg.n_ue):
            basis = build_projector(stats[user].covariance, 4)
            front = basis.conj().T @ xinv
            noise_cov = cfg.noise_psd * (front @ front.conj().T)
            for k in (0, 7):
                g_all = front @ big_h[k]
                others = [j for j in range(cfg.n_ue) if j != user]
                quotient = post_beamforming_sinr(
                    g_all[:, user], g_all[:, others],
                    stats[user].symbol_energy, energies[others], noise_cov)
                assert abs(quotient - g0[user, k, 0]) <= 1e-9 * g0[user, k, 0]

    def test_full_rank_exact_inverse_attains_mmse_baseline(self, scene):
        cfg, stats, channels, _, xinv, _ = scene
        g_full = scenario_gammas(
            stats, channels, xinv, cfg.noise_psd,
            projectors=build_projectors(stats, cfg.n_antennas))
        baseline = mmse_baseline_sinr(stats, channels, cfg.noise_psd)
        assert np.max(np.abs(g_full - baseline) / baseline) <= 1e-9

    def test_reduced_rank_never_beats_mmse_baseline(self, scene):
        cfg, stats, channels, _, xinv, g0 = scene
        baseline = mmse_baseline_sinr(stats, channels, cfg.noise_psd)
        assert np.min(baseline - g0) >= -1e-9

    def test_deterministic(self, scene):
        cfg, stats, channels, _, xinv, g0 = scene
        again = scenario_gammas(stats, channels, xinv, cfg.noise_psd)
        assert np.array_equal(again, g0)


def assert_matches_oracle(gam, oracle, rtol=1e-12):
    assert gam.shape == oracle.shape
    assert np.all(np.abs(gam - oracle) <= rtol * np.abs(oracle))


def scenario_inverse(cfg, kind):
    """A scenario and one inverse of its system: exact, a 2-iteration CG
    iterate, or a preconditioned beamspace iterate mapped back."""
    stats, channels = generate_scenario(cfg)
    system = assemble_q(stats)
    if kind == "exact":
        x = direct_inverse_oracle(system.matrix)
    elif kind == "cg2":
        x = cg_inverse(system, config=CGConfig(max_iters=2, epsilon=1e-16)).x
    else:
        op = build_operator(cfg.side)
        system_b = to_beamspace(op, system, method="fft")
        precond = build_preconditioner(system_b, rank=4, power_iters=2, seed=5)
        state = cg_inverse(system_b, preconditioner=precond,
                           config=CGConfig(max_iters=2, epsilon=1e-16))
        x = from_beamspace(op, state.x, method="fft")
    return stats, channels, x


class TestBatchedGammasOracle:
    """The batched scenario_gammas against the per-user einsum route."""

    @pytest.mark.parametrize("n_streams", [1, 2, 3])
    @pytest.mark.parametrize("n_ue", [1, 4, 8])
    def test_user_and_stream_counts(self, n_ue, n_streams):
        cfg = small_scenario_config(n_ue=n_ue, n_streams=n_streams, seed=430)
        stats, channels, x = scenario_inverse(cfg, "exact")
        assert_matches_oracle(
            scenario_gammas(stats, channels, x, cfg.noise_psd),
            einsum_gammas_oracle(stats, channels, x, cfg.noise_psd))

    @pytest.mark.parametrize("rank", [1, 4, 16])
    def test_ranks(self, rank):
        cfg = small_scenario_config(n_ue=3, n_streams=2, seed=431)
        stats, channels, x = scenario_inverse(cfg, "exact")
        gam = scenario_gammas(stats, channels, x, cfg.noise_psd,
                              projectors=build_projectors(stats, rank))
        assert_matches_oracle(gam, einsum_gammas_oracle(
            stats, channels, x, cfg.noise_psd, rank=rank))
        if rank == cfg.n_antennas:
            baseline = mmse_baseline_sinr(stats, channels, cfg.noise_psd)
            assert np.max(np.abs(gam - baseline) / baseline) <= 1e-9

    @pytest.mark.parametrize("kind", ["exact", "cg2", "beamspace"])
    def test_inverse_kinds(self, kind):
        cfg = small_scenario_config(n_ue=4, seed=432)
        stats, channels, x = scenario_inverse(cfg, kind)
        assert_matches_oracle(
            scenario_gammas(stats, channels, x, cfg.noise_psd),
            einsum_gammas_oracle(stats, channels, x, cfg.noise_psd))

    def test_zero_inverse(self):
        cfg = small_scenario_config(n_ue=4, n_streams=2, seed=433)
        stats, channels = generate_scenario(cfg)
        zero = np.zeros((cfg.n_antennas,) * 2, dtype=complex)
        gam = scenario_gammas(stats, channels, zero, cfg.noise_psd)
        assert gam.shape == (4, cfg.subcarriers, 2)
        assert np.all(gam == 0.0)
        assert np.array_equal(
            gam, einsum_gammas_oracle(stats, channels, zero, cfg.noise_psd))

    def test_mixed_rank_projectors_rejected(self, scene):
        cfg, stats, channels, _, xinv, _ = scene
        projectors = [build_projector(stats[0].covariance, 4),
                      build_projector(stats[1].covariance, 2)]
        with pytest.raises(ValueError, match="shape"):
            scenario_gammas(stats, channels, xinv, cfg.noise_psd,
                            projectors=projectors)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(side=st.integers(2, 4), n_ue=st.integers(1, 5),
           n_streams=st.integers(1, 2), subcarriers=st.integers(8, 32),
           seed=st.integers(0, 2**32 - 1))
    def test_small_scenarios_property(self, side, n_ue, n_streams,
                                      subcarriers, seed):
        cfg = ScenarioConfig(side=side, n_ue=n_ue, n_streams=n_streams,
                             subcarriers=subcarriers, seed=seed)
        stats, channels, x = scenario_inverse(cfg, "exact")
        rank = min(4, cfg.n_antennas)
        assert_matches_oracle(
            scenario_gammas(stats, channels, x, cfg.noise_psd,
                            projectors=build_projectors(stats, rank)),
            einsum_gammas_oracle(stats, channels, x, cfg.noise_psd, rank=rank))


class TestBeamspaceGammas:
    """scenario_gammas(operator=) on a beamspace iterate against the
    antenna route on its back-mapped matrix."""

    @pytest.mark.parametrize("side", [2, 3, 8, 16])
    def test_matches_back_mapped_iterate(self, side):
        cfg = small_scenario_config(side=side, n_ue=3, n_streams=2, seed=434)
        stats, channels = generate_scenario(cfg)
        op = build_operator(side)
        system_b = to_beamspace(op, assemble_q(stats))
        # an inexact iterate, so every entry of X_b carries weight
        x_b = cg_inverse(system_b, config=CGConfig(max_iters=2,
                                                   epsilon=1e-16)).x
        projectors = build_projectors(stats, min(4, cfg.n_antennas))
        gam = scenario_gammas(stats, channels, x_b, cfg.noise_psd,
                              projectors=projectors, operator=op)
        assert np.all(gam > 0.0)
        assert_matches_oracle(gam, scenario_gammas(
            stats, channels, from_beamspace(op, x_b), cfg.noise_psd,
            projectors=projectors))

    def test_oracle_maps_back_through_from_beamspace(self):
        cfg = small_scenario_config(n_ue=3, seed=435)
        stats, channels = generate_scenario(cfg)
        op = build_operator(cfg.side)
        x_b = direct_inverse_oracle(to_beamspace(op, assemble_q(stats)).matrix)
        assert_matches_oracle(
            scenario_gammas(stats, channels, x_b, cfg.noise_psd, operator=op),
            einsum_gammas_oracle(stats, channels, x_b, cfg.noise_psd,
                                 operator=op))


class TestExplicitQuotient:
    def test_single_stream_white_noise_closed_form(self):
        # lone unit-norm stream in white noise: sinr is E/N0
        g = np.zeros(6, dtype=complex)
        g[2] = 1.0
        sinr = post_beamforming_sinr(g, np.zeros((6, 0)), 3.0, [],
                                     0.5 * np.eye(6, dtype=complex))
        assert abs(sinr - 6.0) <= 1e-12

    def test_orthogonal_interferer_costs_nothing(self):
        rng = np.random.default_rng(17)
        g = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        other = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        other -= (np.vdot(g, other) / np.vdot(g, g)) * g
        noise = np.eye(8, dtype=complex)
        alone = post_beamforming_sinr(g, np.zeros((8, 0)), 2.0, [], noise)
        crowded = post_beamforming_sinr(g, other[:, None], 2.0, [50.0], noise)
        assert abs(crowded - alone) <= 0.05 * alone

    def test_colinear_interferer_hurts(self):
        g = np.ones(4, dtype=complex)
        noise = np.eye(4, dtype=complex)
        alone = post_beamforming_sinr(g, np.zeros((4, 0)), 1.0, [], noise)
        jammed = post_beamforming_sinr(g, 1.0j * g[:, None], 1.0, [10.0], noise)
        assert jammed < 0.5 * alone


class TestMMSEBaseline:
    def test_single_user_closed_form(self):
        cfg = ScenarioConfig(side=2, n_ue=1, n_streams=1, paths_per_user=2,
                             snr_db_low=6.0, snr_db_high=6.0, subcarriers=8,
                             seed=33)
        stats, channels = generate_scenario(cfg)
        baseline = mmse_baseline_sinr(stats, channels, cfg.noise_psd)
        for k in range(cfg.subcarriers):
            expect = stats[0].symbol_energy \
                * np.linalg.norm(channels[0].h[k, :, 0]) ** 2 / cfg.noise_psd
            assert abs(baseline[0, k, 0] - expect) <= 1e-9 * expect


class TestBoundCheck:
    def test_zero_epsilon_is_equality(self, scene):
        _, _, _, _, _, g0 = scene
        chk = check_sinr_bound(g0, g0, 0.0)
        assert np.array_equal(chk.rhs, g0)
        assert chk.fraction_ok == 1.0
        assert chk.min_margin == 0.0

    def test_shape_mismatch_rejected(self, scene):
        _, _, _, _, _, g0 = scene
        with pytest.raises(ValueError):
            check_sinr_bound(g0, g0[:, :4], 0.1)

    def test_half_unit_residual_holds_with_collapsed_rhs(self, scene):
        # inject a perturbation with operator residual exactly 0.5; the
        # guarantee must still hold even though it has become very loose
        cfg, stats, channels, system, xinv, g0 = scene
        n = cfg.n_antennas
        rng = np.random.default_rng(99)
        p0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p0 *= 0.5 / np.linalg.norm(p0, 2)
        xbad = xinv + np.linalg.solve(system.matrix, p0)
        _, spec = inverse_error(system, xbad)
        assert abs(spec - 0.5) <= 1e-12
        gbad = scenario_gammas(stats, channels, xbad, cfg.noise_psd)
        chk = check_sinr_bound(g0, gbad, spec)
        assert chk.fraction_ok == 1.0
        assert np.max(chk.rhs / g0) <= 0.5

    def test_residual_past_one_gives_zero_rhs(self):
        # one plain CG step on a -10..40 dB loading leaves eps = 16.1;
        # unclamped, (1-eps)^2 grew back and 153 of 512 SINRs fell below
        cfg = ScenarioConfig(side=8, n_ue=8, paths_per_user=8,
                             snr_db_low=-10.0, snr_db_high=40.0,
                             subcarriers=64, seed=101)
        stats, channels = generate_scenario(cfg)
        system = assemble_q(stats)
        g0 = scenario_gammas(stats, channels,
                             direct_inverse_oracle(system.matrix),
                             cfg.noise_psd)
        state = cg_inverse(system, config=CGConfig(max_iters=1, epsilon=0.0))
        _, spec = inverse_error(system, state.x)
        assert spec >= 1.0
        gbad = scenario_gammas(stats, channels, state.x, cfg.noise_psd)
        chk = check_sinr_bound(g0, gbad, spec)
        assert np.all(chk.rhs == 0.0)
        assert chk.fraction_ok == 1.0

    def test_tiny_residual_keeps_rhs_tight(self, scene):
        _, _, _, _, _, g0 = scene
        chk = check_sinr_bound(g0, g0, 1e-12)
        assert np.max(np.abs(chk.rhs - g0) / g0) <= 1e-10
        assert chk.fraction_ok == 1.0


class TestCapacity:
    def test_unit_sinr_is_one_bit(self):
        assert capacity(np.array([[1.0]])) == 1.0

    def test_user_mean_then_average(self):
        g = np.array([[1.0, 1.0], [3.0, 3.0]])
        assert abs(capacity(g) - 1.5) <= 1e-15

    def test_zero_budget_checkpoint_has_zero_capacity(self, scene):
        cfg, stats, channels, system, _, _ = scene
        rows, _ = capacity_vs_iterations(
            system, capacity_scorer(stats, channels, cfg.noise_psd), [0], [])
        assert rows[0]["iterations"] == 0
        assert rows[0]["capacity"] == 0.0

    def test_converged_checkpoint_matches_exact(self, scene):
        cfg, stats, channels, system, _, g0 = scene
        rows, _ = capacity_vs_iterations(
            system, capacity_scorer(stats, channels, cfg.noise_psd), [2, 20],
            [])
        exact = capacity(g0)
        assert rows[0]["requested"] == 2 and rows[0]["iterations"] == 2
        assert abs(rows[1]["capacity"] - exact) <= 0.01 * exact
        alone = cg_inverse(system, config=CGConfig(
            max_iters=rows[1]["iterations"], epsilon=0.0))
        assert residual_norm(system, alone.x) <= 1e-10


def quiet_scene():
    """Vanishing transmit power: Q is I to rounding, so CG attains its
    accuracy after a single iteration."""
    cfg = small_scenario_config(snr_db_low=-300.0, snr_db_high=-300.0)
    stats, channels = generate_scenario(cfg)
    return cfg, stats, channels, assemble_q(stats)


class TestSingleRunCapacity:
    """capacity_vs_iterations against the restart-per-budget oracle."""

    @pytest.fixture(scope="class")
    def pipelines(self, scene):
        cfg, stats, _, system, _, _ = scene
        operator = build_operator(cfg.side)
        beam = to_beamspace(operator, system, method="fft")
        precond = build_preconditioner(beam, rank=4, power_iters=2, seed=7)
        back = lambda xb: from_beamspace(operator, xb, method="fft")
        return {"antenna_plain": (system, None, None),
                "beamspace_precond": (beam, precond, back)}

    @pytest.mark.parametrize("budgets", [[0], [6, 2, 6, 0, 4], [3, 12], []])
    @pytest.mark.parametrize("pipeline", ["antenna_plain", "beamspace_precond"])
    def test_rows_equal_restart_oracle(self, scene, pipelines, pipeline, budgets):
        cfg, stats, channels, _, _, _ = scene
        system, precond, back = pipelines[pipeline]
        rows, _ = capacity_vs_iterations(
            system, capacity_scorer(stats, channels, cfg.noise_psd, back),
            budgets, [], preconditioner=precond)
        oracle = restart_capacity_oracle(system, stats, channels,
                                         cfg.noise_psd, budgets,
                                         preconditioner=precond, transform=back)
        # repr: exact float digits
        assert repr(rows) == repr(oracle)

    def test_floor_stop_reports_iterations_reached(self):
        cfg, stats, channels, system = quiet_scene()
        budgets = [5, 1, 0, 3]
        rows, _ = capacity_vs_iterations(
            system, capacity_scorer(stats, channels, cfg.noise_psd), budgets,
            [])
        assert [row["iterations"] for row in rows] == [1, 1, 0, 1]
        assert repr(rows) == repr(restart_capacity_oracle(
            system, stats, channels, cfg.noise_psd, budgets))

    @pytest.mark.parametrize("quiet, eps", [(False, 1e-6), (False, 0.5),
                                            (True, 1e-300)])
    def test_converged_iterate_equals_separate_solve(self, scene, quiet, eps):
        if quiet:
            cfg, stats, channels, system = quiet_scene()
        else:
            cfg, stats, channels, system, _, _ = scene
        n = system.matrix.shape[0]
        budgets = [2, 4]
        rows, (converged,) = capacity_vs_iterations(
            system, capacity_scorer(stats, channels, cfg.noise_psd), budgets,
            [eps])
        # a separate run at eps; where eps is out of reach (1e-300) both
        # runs stagnate, and the tolerance takes the stagnated iterate
        alone = cg_inverse(system, config=CGConfig(max_iters=10 * n,
                                                   epsilon=eps))
        assert converged["iterations"] == alone.iterations < 10 * n
        assert np.array_equal(converged["x"], alone.x)
        assert repr(rows) == repr(restart_capacity_oracle(
            system, stats, channels, cfg.noise_psd, budgets))

    def test_converged_waits_for_a_lagging_estimate(self, scene):
        # at k the true residual is below eps and the recursive estimate is
        # not; the single run goes on to where a separate run stops
        cfg, stats, channels, system, _, _ = scene
        n = system.matrix.shape[0]
        k, eps = lagging_estimate_case(system)
        _, (converged,) = capacity_vs_iterations(
            system, capacity_scorer(stats, channels, cfg.noise_psd), [1],
            [eps])
        alone = cg_inverse(system, config=CGConfig(max_iters=10 * n,
                                                   epsilon=eps))
        assert converged["iterations"] == alone.iterations > k
        assert np.array_equal(converged["x"], alone.x)
        assert residual_norm(system, alone.x) < eps

    def test_converged_below_eps_where_the_estimate_leads(self):
        # the estimate passes 1e-15 while the true residual is above it (the
        # replacement case of cg_inverse); converged still lies below eps
        cfg = ScenarioConfig(side=16, subcarriers=32, seed=3302)
        stats, channels = generate_scenario(cfg)
        system = assemble_q(stats)
        eps = 1e-15
        _, (converged,) = capacity_vs_iterations(
            system, capacity_scorer(stats, channels, cfg.noise_psd), [1],
            [eps])
        n = system.matrix.shape[0]
        resid = np.eye(n) - system.matrix @ converged["x"]
        assert np.linalg.norm(resid) / np.sqrt(n) < eps

    def test_stagnation_stops_where_the_level_test_never_fires(self):
        # the true residual flattens above the accuracy level, so only the
        # stagnation test ends the budget run, and an unreachable tolerance
        # takes the iterate where a run at it stagnates
        cfg, stats, channels, system, stagnated_at = stagnating_case()
        n = system.matrix.shape[0]
        budgets = [stagnated_at - 1, 10 * n]
        rows, _ = capacity_vs_iterations(
            system, capacity_scorer(stats, channels, cfg.noise_psd), budgets,
            [])
        assert [row["iterations"] for row in rows] == [stagnated_at - 1,
                                                        stagnated_at]
        assert repr(rows) == repr(restart_capacity_oracle(
            system, stats, channels, cfg.noise_psd, budgets))
        eps = 1e-20
        _, (converged,) = capacity_vs_iterations(system, None, [], [eps])
        level_at, stop = accuracy_stops(system, epsilon=eps)
        alone = cg_inverse(system, config=CGConfig(max_iters=10 * n,
                                                   epsilon=eps))
        assert level_at is None
        assert alone.stop == "stagnated"
        assert converged["iterations"] == alone.iterations == stop < 10 * n
        assert np.array_equal(converged["x"], alone.x)

    def test_stagnated_budget_is_scored_once(self):
        # the run stagnates exactly at a budget: one score, with the best
        # checked iterate cg returns there, which the row reports; the hook
        # saw the last iterate at that budget too, and must not score it
        cfg, stats, channels, system, stagnated_at = stagnating_case()
        n = system.matrix.shape[0]
        seen = []

        def score(x):
            seen.append(x)
            return float(len(seen))

        rows, _ = capacity_vs_iterations(system, score,
                                         [stagnated_at, 10 * n], [])
        assert [row["iterations"] for row in rows] == [stagnated_at] * 2
        assert [row["capacity"] for row in rows] == [1.0, 1.0]
        assert len(seen) == 1
        alone = cg_inverse(system, config=CGConfig(max_iters=10 * n,
                                                   epsilon=0.0))
        assert alone.stop == "stagnated"
        assert alone.iterations == stagnated_at
        assert np.array_equal(seen[0], alone.x)

    def test_prebuilt_projectors_give_identical_gammas(self, scene):
        cfg, stats, channels, _, xinv, g0 = scene
        projectors = build_projectors(stats, 4)
        again = scenario_gammas(stats, channels, xinv, cfg.noise_psd,
                                projectors=projectors)
        assert np.array_equal(again, g0)

    def test_score_called_once_per_distinct_budget(self, scene):
        _, _, _, system, _, _ = scene
        seen = []

        def score(x):
            seen.append(x.copy())
            return float(len(seen) - 1)  # the call's index

        rows, _ = capacity_vs_iterations(system, score, [4, 2, 4, 0], [])
        assert [row["iterations"] for row in rows] == [4, 2, 4, 0]
        assert [row["capacity"] for row in rows] == [2.0, 1.0, 2.0, 0.0]
        assert len(seen) == 3
        assert not np.any(seen[0])
        for x, budget in zip(seen[1:], (2, 4)):
            alone = cg_inverse(system, config=CGConfig(max_iters=budget,
                                                       epsilon=0.0))
            assert np.array_equal(x, alone.x)

    def test_beamspace_score_sees_working_domain_iterates(self, scene,
                                                          pipelines):
        system, precond, _ = pipelines["beamspace_precond"]
        n = system.matrix.shape[0]
        seen = []

        def score(x):
            seen.append(x.copy())
            return 0.0

        rows, (converged,) = capacity_vs_iterations(
            system, score, [1, 2], [1e-6], preconditioner=precond)
        assert [row["iterations"] for row in rows] == [1, 2]
        for x, budget in zip(seen, (1, 2)):
            alone = cg_inverse(system, preconditioner=precond,
                               config=CGConfig(max_iters=budget, epsilon=0.0))
            assert np.array_equal(x, alone.x)
        alone = cg_inverse(system, preconditioner=precond,
                           config=CGConfig(max_iters=10 * n, epsilon=1e-6))
        assert np.array_equal(converged["x"], alone.x)

    def test_tolerance_only_run_never_scores(self, scene):
        _, _, _, system, _, _ = scene

        def score(x):
            raise AssertionError("scored a run without budgets")

        rows, (converged,) = capacity_vs_iterations(system, score, [], [1e-6])
        assert rows == [] and converged["iterations"] > 0

    @pytest.mark.parametrize("budgets", [[-1], [2, 161]])
    def test_budgets_out_of_range(self, scene, budgets):
        cfg, stats, channels, system, _, _ = scene
        with pytest.raises(ValueError):
            capacity_vs_iterations(
                system, capacity_scorer(stats, channels, cfg.noise_psd),
                budgets, [])

    @pytest.mark.parametrize("tolerances", [[0.0], [1e-6, 1.0]])
    def test_tolerances_out_of_range(self, scene, tolerances):
        cfg, stats, channels, system, _, _ = scene
        with pytest.raises(ValueError, match="tolerances"):
            capacity_vs_iterations(
                system, capacity_scorer(stats, channels, cfg.noise_psd),
                [2], tolerances)


class TestSinrCDF:
    def test_single_sample(self):
        db, probs = sinr_cdf(np.array([4.0]))
        assert np.array_equal(probs, [1.0])
        assert abs(db[0] - 10.0 * np.log10(4.0)) <= 1e-12

    def test_two_equal_samples(self):
        db, probs = sinr_cdf(np.array([2.0, 2.0]))
        assert np.array_equal(probs, [0.5, 1.0])
        assert db[0] == db[1]

    def test_sorted_output(self, scene):
        _, _, _, _, _, g0 = scene
        db, probs = sinr_cdf(g0)
        assert np.all(np.diff(db) >= 0.0)
        assert probs[-1] == 1.0 and db.size == g0.size

    def test_exact_inverse_dominates_truncated_solver(self):
        # benchmark scenario: quantile-by-quantile the exact front end must
        # sit at or above a 3-iteration plain solve, judged at 0.1 dB
        cfg = ScenarioConfig()
        stats, channels = generate_scenario(cfg)
        system = assemble_q(stats)
        xinv = direct_inverse_oracle(system.matrix)
        g_exact = scenario_gammas(stats, channels, xinv, cfg.noise_psd)
        state = cg_inverse(system, config=CGConfig(max_iters=3, epsilon=1e-16))
        g_trunc = scenario_gammas(stats, channels, state.x, cfg.noise_psd)
        db_exact, _ = sinr_cdf(g_exact)
        db_trunc, _ = sinr_cdf(g_trunc)
        assert np.all(db_exact >= db_trunc - 0.1)
        assert np.median(db_exact - db_trunc) > 0.0


class TestCSVWriters:
    def test_capacity_rows_round_trip(self, tmp_path):
        rows = [("plain", 3, 1.2345678901234567), ("precond", 5, 2.5)]
        path = tmp_path / "capacity.csv"
        write_csv(path, "config_id,iters,capacity", rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "config_id,iters,capacity"
        cells = lines[1].split(",")
        assert cells[0] == "plain" and int(cells[1]) == 3
        assert float(cells[2]) == rows[0][2]

    def test_cdf_and_bound_headers(self, tmp_path):
        # the sweep passes each table's header to write_csv; with no
        # budgets it writes the headers alone
        cfg = ScenarioConfig(side=4, n_ue=1, paths_per_user=1, subcarriers=4)
        scenario = str(tmp_path / "s.bslv")
        save_scenario(scenario, cfg, *generate_scenario(cfg))
        assert cli.run(["sweep", scenario, "--iters", "",
                        "--out-dir", str(tmp_path)]) == 0
        for name, header in (("capacity", "config_id,iters,capacity"),
                             ("cdf", "gamma_db,cdf,config_id"),
                             ("bound", "user,epsilon,gamma,bound_rhs,margin")):
            text = (tmp_path / (name + ".csv")).read_text()
            assert text == header + "\n", name

    def test_float_cells_preserve_all_digits(self, tmp_path):
        value = 0.1 + 0.2  # not representable prettily
        path = tmp_path / "cap.csv"
        write_csv(path, "config_id,iters,capacity", [("c", 1, value)])
        back = float(path.read_text().splitlines()[1].split(",")[2])
        assert back == value
