import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from ltbf.beamspace import build_operator, to_beamspace
from ltbf.cg import CGConfig, cg_inverse
from ltbf.linalg import DimensionMismatchError, FlopCounter, fro_norm
from ltbf.precond import (
    DEFAULT_WIDTH,
    SKETCH_SHIFT,
    InvalidSpectrumError,
    LowRankPreconditioner,
    build_preconditioner,
    from_eigenpairs,
)
from ltbf import randevd
from ltbf.randevd import randomized_evd
from ltbf.scenario import ScenarioConfig, SystemMatrix, assemble_q, generate_scenario
from oracles import direct_inverse_oracle


def sketch_shift(system):
    """The shift build_preconditioner sketches about: 1 - delta."""
    n = system.matrix.shape[0]
    return 1.0 - SKETCH_SHIFT * max(n * (system.sigma2 - 1.0), 1.0)


def numpy_residual(matrix, x):
    n = matrix.shape[0]
    return float(np.linalg.norm(np.eye(n) - matrix @ x) / np.sqrt(n))


def pcg_iterations(system, precond, eps=1e-6):
    """Iterations of a preconditioned run to eps; asserts it got there."""
    n = system.matrix.shape[0]
    state = cg_inverse(system, preconditioner=precond,
                       config=CGConfig(max_iters=10 * n, epsilon=eps))
    assert state.iterations < 10 * n
    assert numpy_residual(system.matrix, state.x) < eps
    return state.iterations


def known_surrogate(n, rank, eigvals, seed):
    """Matrix of the exact form I + U (Lambda - I) U^H."""
    u = helpers.random_unitary_columns(n, rank, seed)
    vals = np.asarray(eigvals, dtype=np.float64)
    a = np.eye(n, dtype=np.complex128) + (u * (vals - 1.0)) @ u.conj().T
    return a, u, vals


class TestExactEigenpairs:
    def test_isotropic_is_exact_inverse(self):
        # eigenpairs on the unit cluster: the surrogate is I, and so is M
        u = helpers.random_unitary_columns(12, 3, 200)
        m = from_eigenpairs(u, np.ones(3))
        assert np.all(m.weights == 0.0)
        assert np.array_equal(helpers.surrogate_matrix(m), np.eye(12))
        assert np.array_equal(m.apply(np.eye(12, dtype=np.complex128)),
                              np.eye(12))

    def test_zero_weights_short_circuit(self):
        u = helpers.random_unitary_columns(8, 2, 202)
        m = from_eigenpairs(u, [1.0, 1.0])
        r = helpers.random_complex((8, 8), 203)
        assert fro_norm(m.apply(r) - r) == 0.0

    def test_inverts_known_surrogate(self):
        a, u, vals = known_surrogate(48, 5, [9.0, 7.0, 5.0, 3.0, 2.0], 204)
        m = from_eigenpairs(u, vals)
        prod = m.apply(a)
        assert fro_norm(prod - np.eye(48)) <= 1e-9
        assert fro_norm(helpers.explicit_matrix(m) @ a - np.eye(48)) <= 1e-9

    def test_surrogate_matrix_round_trip(self):
        a, u, vals = known_surrogate(20, 3, [6.0, 4.0, 2.0], 205)
        m = from_eigenpairs(u, vals)
        assert fro_norm(helpers.surrogate_matrix(m) - a) <= 1e-12

    def test_maps_eigvecs_to_inverse_eigvals(self):
        a, u, vals = known_surrogate(32, 4, [8.0, 6.0, 4.0, 2.0], 206)
        m = from_eigenpairs(u, vals)
        out = m.apply(u.copy())
        assert fro_norm(out - u / vals) <= 1e-12
        assert fro_norm(helpers.explicit_matrix(m) @ u - u / vals) <= 1e-12

    def test_positive_definite_even_with_small_eigvals(self):
        # eigenvalues below 1 flip the weight sign but keep M positive
        u = helpers.random_unitary_columns(16, 2, 207)
        m = from_eigenpairs(u, [5.0, 0.5])
        dense = helpers.explicit_matrix(m)
        rng = np.random.default_rng(208)
        for _ in range(20):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            quad = np.real(x.conj() @ dense @ x)
            assert quad > 0.0


class TestApply:
    def test_matches_explicit_matrix(self):
        u = helpers.random_unitary_columns(128, 8, 210)
        vals = np.linspace(9.0, 2.0, 8)
        m = from_eigenpairs(u, vals)
        r = helpers.random_complex((128, 16), 211)
        assert fro_norm(m.apply(r) - helpers.explicit_matrix(m) @ r) <= 1e-11

    def test_bitwise_equal_to_woodbury_expression(self):
        u = helpers.random_unitary_columns(96, 6, 220)
        m = from_eigenpairs(u, np.linspace(8.0, 1.5, 6))
        r = helpers.random_complex((96, 96), 221)
        expected = r - u @ (m.weights[:, None] * (u.conj().T @ r))
        assert np.array_equal(m.apply(r), expected)

    def test_identity_block_gives_explicit_matrix(self):
        u = helpers.random_unitary_columns(10, 2, 212)
        m = from_eigenpairs(u, [4.0, 3.0])
        assert fro_norm(m.apply(np.eye(10, dtype=np.complex128))
                        - helpers.explicit_matrix(m)) <= 1e-12

    def test_linear(self):
        u = helpers.random_unitary_columns(24, 3, 213)
        m = from_eigenpairs(u, [7.0, 5.0, 3.0])
        r1 = helpers.random_complex((24, 6), 214)
        r2 = helpers.random_complex((24, 6), 215)
        assert fro_norm(m.apply(r1 + r2) - m.apply(r1) - m.apply(r2)) <= 1e-12

    def test_row_mismatch_rejected(self):
        u = helpers.random_unitary_columns(16, 2, 216)
        m = from_eigenpairs(u, [3.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            m.apply(helpers.random_complex((15, 4), 217))
        with pytest.raises(DimensionMismatchError):
            m.apply(np.ones(16, dtype=np.complex128))

    def test_counter_charges_thin_products_only(self):
        n, rank, m_cols = 256, 8, 256
        u = helpers.random_unitary_columns(n, rank, 218)
        m = from_eigenpairs(u, np.linspace(6.0, 2.0, rank))
        counter = FlopCounter()
        m.apply(helpers.random_complex((n, m_cols), 219), counter=counter)
        assert counter.mults == 2 * rank * n * m_cols + rank * m_cols
        assert counter.adds == 2 * rank * n * m_cols + n * m_cols
        assert counter.mults <= 1.1 * (2 * rank * n * m_cols + n * m_cols)
        assert set(counter.per_kernel) == {"precond_apply"}


class TestBuildFromSystem:
    def test_matches_direct_inverse_of_surrogate(self):
        cfg = ScenarioConfig(side=8, subcarriers=32, seed=3310)
        stats, _ = generate_scenario(cfg)
        system = assemble_q(stats)
        m = build_preconditioner(system, rank=8, power_iters=4, seed=77)
        oracle = direct_inverse_oracle(helpers.surrogate_matrix(m))
        assert fro_norm(helpers.explicit_matrix(m) - oracle) <= 1e-9

    def test_level_is_the_unit_cluster(self):
        # the cluster of I + L is exactly 1, whatever the mean diagonal
        cfg = ScenarioConfig(side=4, n_ue=2, paths_per_user=2,
                             subcarriers=16, seed=3311)
        stats, _ = generate_scenario(cfg)
        system = assemble_q(stats)
        m = build_preconditioner(system, rank=4, power_iters=2, seed=78)
        assert system.sigma2 > 1.0
        assert np.array_equal(m.weights, 1.0 - 1.0 / m.eigvals)
        assert m.eigvals.shape == (4,)
        assert np.all(np.diff(m.eigvals) <= 1e-12)

    def test_counter_propagates_to_sketch(self):
        cfg = ScenarioConfig(side=4, n_ue=2, paths_per_user=2,
                             subcarriers=16, seed=3312)
        stats, _ = generate_scenario(cfg)
        system = assemble_q(stats)
        counter = FlopCounter()
        build_preconditioner(system, rank=4, power_iters=2, seed=79,
                             counter=counter)
        assert counter.kernel_mults("gemm") > 0

    def test_equals_wrapped_sketch(self):
        cfg = ScenarioConfig(side=4, n_ue=2, paths_per_user=2,
                             subcarriers=16, seed=3313)
        stats, _ = generate_scenario(cfg)
        system = assemble_q(stats)
        m = build_preconditioner(system, rank=4, power_iters=2, seed=82)
        sketch = randomized_evd(system.matrix, 4, 2, 82,
                                shift=sketch_shift(system))
        ref = from_eigenpairs(sketch.eigvecs, sketch.eigvals)
        for field in ("eigvecs", "eigvals", "weights"):
            assert np.array_equal(getattr(m, field), getattr(ref, field)), field

    def test_non_positive_sigma2_rejected(self):
        # sigma2 = Re tr / N = -1; the level is 1 whatever sigma2, and the
        # sketched eigenvalues, all -1, are what is rejected
        bad = SystemMatrix(-np.eye(8), "antenna")
        with pytest.raises(InvalidSpectrumError):
            build_preconditioner(bad, rank=2, power_iters=1, seed=80)

    def test_negative_sketched_eigenvalue_rejected(self):
        # the second case is a full-width sketch, which holds the eigenvector
        # exactly: its Ritz value, -1.01e-13, is a round-off residue below
        # zero and is rejected like any other
        for negative, rank in ((-3.0, 3), (-1e-13, 4)):
            a, _ = helpers.synthetic_hermitian([5.0, 4.0, negative, 0.1], 220)
            bad = SystemMatrix(a, "antenna")
            with pytest.raises(InvalidSpectrumError):
                build_preconditioner(bad, rank=rank, power_iters=2, seed=81)


class TestShiftedSketch:
    """The sketch runs on the loading Q - I, plus a small shift."""

    @pytest.mark.parametrize("stats_config", [
        # rank(Q - I) = 4, 1 and 0 against a sketch rank of 8
        dict(side=4, n_ue=2, paths_per_user=2, subcarriers=16, seed=3314),
        dict(side=4, n_ue=1, paths_per_user=1, subcarriers=16, seed=3315),
        None,
    ])
    def test_loading_of_lower_rank_than_the_sketch(self, stats_config):
        if stats_config is None:
            system = SystemMatrix(np.eye(16, dtype=np.complex128), "antenna")
        else:
            stats, _ = generate_scenario(ScenarioConfig(**stats_config))
            system = assemble_q(stats)
        m = build_preconditioner(system, rank=8, power_iters=4, seed=83)
        assert np.all(m.eigvals >= 1.0 - 1e-12)
        pcg_iterations(system, m)

    @pytest.mark.parametrize("seed", [3301, 3302, 3303])
    def test_iterations_close_to_exact_eigenpairs(self, seed):
        # unshifted, the q=8 p=4 sketch needs about 7.5 iterations here
        # against 4.8 with exact eigenpairs
        stats, _ = generate_scenario(ScenarioConfig(seed=seed))
        system = to_beamspace(build_operator(16), assemble_q(stats),
                              method="fft")
        vals, vecs = np.linalg.eigh(system.matrix)
        exact = from_eigenpairs(vecs[:, :-9:-1], vals[:-9:-1])
        sketched = build_preconditioner(system, rank=8, power_iters=4,
                                        seed=seed)
        assert (pcg_iterations(system, sketched)
                <= pcg_iterations(system, exact) + 1)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(2, 32), data=st.data(), log_scale=st.floats(-6.0, 3.0),
           log_eps=st.floats(-10.0, -3.0), seed=st.integers(0, 2**32 - 1))
    def test_identity_plus_psd(self, n, data, log_scale, log_eps, seed):
        load_rank = data.draw(st.integers(0, n), label="load_rank")
        rank = data.draw(st.integers(1, min(n, 8)), label="rank")
        power_iters = data.draw(st.integers(1, 4), label="power_iters")
        rng = np.random.default_rng(seed)
        w = helpers.random_complex((n, load_rank), seed) \
            * 10.0 ** rng.uniform(-2.0, 0.0, load_rank)
        a = np.eye(n) + 10.0 ** log_scale * (w @ w.conj().T)
        a = 0.5 * (a + a.conj().T)
        system = SystemMatrix(a, "antenna")
        m = build_preconditioner(system, rank=rank, power_iters=power_iters,
                                 seed=seed)
        spectrum = np.linalg.eigvalsh(a)
        slack = 1e-12 * spectrum[-1]
        assert np.all(m.eigvals >= spectrum[0] - slack)
        assert np.all(m.eigvals <= spectrum[-1] + slack)
        eps = 10.0 ** log_eps
        state = cg_inverse(system, preconditioner=m,
                           config=CGConfig(max_iters=10 * n, epsilon=eps))
        if state.iterations < 10 * n:
            assert numpy_residual(a, state.x) < eps


class TestDefaultSketch:
    """Shift SKETCH_SHIFT tr(L), level 1 and width min(DEFAULT_WIDTH, N)."""

    @pytest.mark.parametrize("side", [1, 2, 4, 8])
    def test_default_width_is_capped_at_n(self, side):
        n = side * side
        identity = SystemMatrix(np.eye(n, dtype=np.complex128), "antenna")
        m = build_preconditioner(identity, rank=None, power_iters=2, seed=84)
        assert m.eigvals.shape == (min(DEFAULT_WIDTH, n),)

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_wide_range_loading_sketches_without_a_redraw(self, monkeypatch,
                                                          seed):
        # 8 users x 8 paths over -10..40 dB: L has rank 64 = N and spans
        # five decades, yet no power step of any width breaks CholeskyQR2
        # (a RankDeficiencyError, with no redraw left)
        monkeypatch.setattr(randevd, "_MAX_REDRAWS", 0)
        cfg = ScenarioConfig(side=8, n_ue=8, paths_per_user=8,
                             snr_db_low=-10.0, snr_db_high=40.0,
                             subcarriers=64, seed=seed)
        stats, _ = generate_scenario(cfg)
        system = assemble_q(stats)
        for system in (system, to_beamspace(build_operator(8), system)):
            for rank in (8, 16, 32, 64):
                m = build_preconditioner(system, rank=rank, power_iters=2,
                                         seed=seed)
                assert np.all(m.eigvals >= 1.0 - 1e-9)


class TestSpectrumValidation:
    def test_non_positive_eigenvalue(self):
        u = helpers.random_unitary_columns(8, 2, 222)
        with pytest.raises(InvalidSpectrumError):
            from_eigenpairs(u, [3.0, 0.0])
        with pytest.raises(InvalidSpectrumError):
            from_eigenpairs(u, [3.0, -2.0])

    def test_weights_formula(self):
        # 1 - 1/lambda: negative below the unit cluster
        u = helpers.random_unitary_columns(8, 3, 223)
        m = from_eigenpairs(u, [4.0, 2.0, 0.5])
        assert np.array_equal(m.weights, [1.0 - 0.25, 1.0 - 0.5, 1.0 - 2.0])
