import inspect

import numpy as np
import pytest

import helpers
from ltbf.beamspace import (
    build_operator,
    from_beamspace,
    rows_from_beamspace,
    sparsity_ratio,
    to_beamspace,
)
from ltbf.linalg import DimensionMismatchError, FlopCounter, fro_norm
from ltbf.scenario import ScenarioConfig, SystemMatrix, assemble_q, generate_scenario
from oracles import (dense_from_beamspace, dense_to_beamspace,
                     direct_inverse_oracle, full_evd_oracle)


def antenna_system(matrix):
    return SystemMatrix(matrix, "antenna")


def scenario_system(seed, side=4):
    cfg = ScenarioConfig(side=side, n_ue=2, paths_per_user=2,
                         subcarriers=16, seed=seed)
    stats, _ = generate_scenario(cfg)
    return assemble_q(stats)


def on_grid_ramp(side, kx, ky):
    """Separable phase ramp that the DFT maps onto a single beam."""
    j = np.arange(side)
    ramp_x = np.exp(2j * np.pi * j * kx / side)
    ramp_y = np.exp(2j * np.pi * j * ky / side)
    return np.kron(ramp_x, ramp_y)


class TestOperator:
    def test_side_one_is_identity(self):
        op = build_operator(1)
        assert np.array_equal(op.f, np.ones((1, 1), dtype=complex))

    def test_side_two_is_scaled_hadamard(self):
        op = build_operator(2)
        axis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert fro_norm(op.axis_dft - axis) <= 1e-15
        assert fro_norm(op.f - np.kron(axis, axis)) <= 1e-15
        assert np.max(np.abs(op.f.imag)) <= 1e-15

    def test_kronecker_identity(self):
        op = build_operator(5)
        assert np.array_equal(op.f, np.kron(op.axis_dft, op.axis_dft))

    @pytest.mark.parametrize("side", [2, 4, 16])
    def test_unitary(self, side):
        op = build_operator(side)
        n = side * side
        defect = fro_norm(op.f @ op.f.conj().T - np.eye(n))
        assert defect <= 1e-11 * np.sqrt(n)

    def test_side_four_gram(self):
        op = build_operator(4)
        assert fro_norm(op.f.conj().T @ op.f - np.eye(16)) <= 1e-13

    def test_matches_fft_on_vectors(self):
        side = 4
        op = build_operator(side)
        v = helpers.random_complex((side * side,), 400)
        grid = v.reshape(side, side)
        assert np.max(np.abs(op.f @ v - np.fft.fft2(grid).ravel() / side)) <= 1e-12

    def test_bad_side_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_operator(0)


class TestTransforms:
    def test_identity_maps_to_identity(self):
        op = build_operator(3)
        out = to_beamspace(op, antenna_system(np.eye(9)))
        assert fro_norm(out.matrix - np.eye(9)) <= 1e-12
        assert out.domain == "beamspace"

    def test_preserves_hermitian_trace_parseval(self):
        op = build_operator(4)
        system = scenario_system(3330)
        out = to_beamspace(op, system)
        qb = out.matrix
        assert fro_norm(qb - qb.conj().T) == 0.0
        assert abs(np.real(np.trace(qb)) - np.real(np.trace(system.matrix))) \
            <= 1e-10 * abs(np.real(np.trace(system.matrix)))
        assert abs(fro_norm(qb) - fro_norm(system.matrix)) \
            <= 1e-11 * fro_norm(system.matrix)
        assert abs(out.sigma2 - system.sigma2) <= 1e-12 * system.sigma2

    def test_spectrum_invariant_under_similarity(self):
        op = build_operator(4)
        system = scenario_system(3331)
        out = to_beamspace(op, system)
        vals, _ = full_evd_oracle(system.matrix)
        vals_b, _ = full_evd_oracle(out.matrix)
        assert np.max(np.abs(vals - vals_b) / vals) <= 1e-9
        kappa = vals[0] / vals[-1]
        kappa_b = vals_b[0] / vals_b[-1]
        assert abs(kappa - kappa_b) <= 1e-9 * kappa

    def test_round_trip(self):
        op = build_operator(4)
        x = helpers.random_complex((16, 16), 401)
        back = from_beamspace(op, to_beamspace(op, antenna_system(
            x @ x.conj().T + 20.0 * np.eye(16))).matrix)
        target = x @ x.conj().T + 20.0 * np.eye(16)
        assert fro_norm(back - target) <= 1e-11 * fro_norm(target)

    def test_fft_path_matches_dense_both_directions(self):
        op = build_operator(4)
        system = scenario_system(3332)
        dense = dense_to_beamspace(op, system.matrix)
        fast = to_beamspace(op, system, method="fft").matrix
        assert fro_norm(dense - fast) <= 1e-11 * fro_norm(dense)
        x = helpers.random_complex((16, 16), 402)
        assert fro_norm(dense_from_beamspace(op, x)
                        - from_beamspace(op, x, method="fft")) \
            <= 1e-11 * fro_norm(x)

    @pytest.mark.parametrize("side", [1, 2, 5, 8, 16])
    def test_axis_passes_are_bit_identical_to_fft2(self, side):
        # the 1-D passes run in fft2's own axis order, so not one bit moves
        n = side * side
        op = build_operator(side)
        system = antenna_system(helpers.random_complex((n, n), 403 + side))
        grid = system.matrix.reshape(side, side, side, side)
        forward = SystemMatrix(np.fft.ifft2(np.fft.fft2(grid, axes=(0, 1)),
                                            axes=(2, 3)).reshape(n, n),
                               "beamspace")
        assert to_beamspace(op, system).matrix.tobytes() \
            == forward.matrix.tobytes()
        x = helpers.random_complex((n, n), 404 + side)
        back = np.fft.fft2(np.fft.ifft2(x.reshape(side, side, side, side),
                                        axes=(0, 1)), axes=(2, 3))
        assert from_beamspace(op, x).tobytes() == back.reshape(n, n).tobytes()

    def test_transforms_leave_their_input_unchanged(self):
        # the sweep transforms the antenna system.matrix and then solves on it
        op = build_operator(4)
        system = scenario_system(3338)
        kept = system.matrix.copy()
        to_beamspace(op, system)
        assert system.matrix.tobytes() == kept.tobytes()
        x = helpers.random_complex((16, 16), 405)
        x_kept = x.copy()
        from_beamspace(op, x)
        assert x.tobytes() == x_kept.tobytes()

    @pytest.mark.parametrize("side", [1, 2, 3, 8, 16])
    def test_row_ffts_match_back_mapped_matrix(self, side):
        # A F^H X_b F by row FFTs against A times the back-mapped N x N
        n = side * side
        op = build_operator(side)
        rows = helpers.random_complex((5, n), 406 + side)
        x_b = helpers.random_complex((n, n), 407 + side)
        rows_kept, x_kept = rows.copy(), x_b.copy()
        want = rows @ from_beamspace(op, x_b)
        got = rows_from_beamspace(op, rows, x_b)
        assert got.shape == (5, n)
        assert fro_norm(got - want) <= 1e-12 * fro_norm(want)
        assert rows.tobytes() == rows_kept.tobytes()
        assert x_b.tobytes() == x_kept.tobytes()

    def test_row_ffts_match_dense_operator(self):
        op = build_operator(4)
        rows = helpers.random_complex((3, 16), 408)
        x_b = helpers.random_complex((16, 16), 409)
        f = op.f
        want = rows @ f.conj().T @ x_b @ f
        assert fro_norm(rows_from_beamspace(op, rows, x_b) - want) \
            <= 1e-12 * fro_norm(want)

    def test_row_ffts_reject_mismatched_shapes(self):
        op = build_operator(3)
        with pytest.raises(DimensionMismatchError):
            rows_from_beamspace(op, np.ones((2, 9), complex),
                                np.ones((16, 16), complex))
        with pytest.raises(DimensionMismatchError):
            rows_from_beamspace(op, np.ones((2, 16), complex),
                                np.ones((9, 9), complex))
        with pytest.raises(DimensionMismatchError):
            rows_from_beamspace(op, np.ones(9, complex),
                                np.ones((9, 9), complex))

    def test_inverse_commutes_with_transform(self):
        # inverting in beamspace then mapping back equals inverting directly
        op = build_operator(4)
        system = scenario_system(3333)
        qb = to_beamspace(op, system)
        chained = from_beamspace(op, direct_inverse_oracle(qb.matrix))
        direct = direct_inverse_oracle(system.matrix)
        assert fro_norm(chained - direct) <= 1e-9

    def test_forward_transform_holds_one_block(self):
        # side 16 (N = 256): the Hermitian part is formed in the FFT
        # output; 2.13 when SystemMatrix copied it
        _, system = helpers.side16_system()
        op = build_operator(16)
        assert helpers.peak_blocks(lambda: to_beamspace(op, system),
                                   system.matrix.nbytes) <= 1.5

    def test_domain_guard(self):
        op = build_operator(4)
        system = scenario_system(3334)
        once = to_beamspace(op, system)
        with pytest.raises(ValueError):
            to_beamspace(op, once)

    def test_method_guard(self):
        op = build_operator(4)
        system = scenario_system(3335)
        for method in ("auto", "dense"):
            with pytest.raises(ValueError):
                to_beamspace(op, system, method=method)
            with pytest.raises(ValueError):
                from_beamspace(op, system.matrix, method=method)

    def test_size_mismatch(self):
        op = build_operator(3)
        with pytest.raises(DimensionMismatchError):
            to_beamspace(op, scenario_system(3336, side=4))

    def test_dense_path_is_counted_fft_is_not(self):
        op = build_operator(4)
        system = scenario_system(3337)
        counted = FlopCounter()
        dense_to_beamspace(op, system.matrix, counter=counted)
        assert counted.kernel_mults("gemm") == 2 * 16 ** 3
        # the fft path charges nothing, so it takes no counter
        for transform in (to_beamspace, from_beamspace):
            assert "counter" not in inspect.signature(transform).parameters


class TestBeamConcentration:
    def test_on_grid_steering_hits_single_beam(self):
        side = 4
        op = build_operator(side)
        a = on_grid_ramp(side, 1, 2)
        beam = op.f @ a
        mags = np.abs(beam)
        peak = np.argmax(mags)
        assert abs(mags[peak] - side) <= 1e-12
        rest = np.delete(mags, peak)
        assert np.max(rest) <= 1e-12

    def test_rank_one_system_concentrates_energy(self):
        side = 4
        n = side * side
        op = build_operator(side)
        a = on_grid_ramp(side, 2, 1)
        q = np.outer(a, a.conj())
        qb = to_beamspace(op, antenna_system(q)).matrix
        peak_fraction = lambda m: float(np.max(np.abs(m)) ** 2
                                        / np.sum(np.abs(m) ** 2))
        assert peak_fraction(qb) > peak_fraction(q)
        assert sparsity_ratio(qb) > sparsity_ratio(q)


class TestSparsityRatio:
    def test_identity_reference_value(self):
        assert sparsity_ratio(np.eye(4, dtype=complex), 0.005) == 0.75

    def test_all_ones(self):
        assert sparsity_ratio(np.ones((3, 3), dtype=complex), 0.005) == 0.0

    def test_zero_matrix_fully_sparse(self):
        assert sparsity_ratio(np.zeros((5, 5), dtype=complex), 0.005) == 1.0

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            sparsity_ratio(np.eye(3, dtype=complex), 0.0)
        with pytest.raises(ValueError):
            sparsity_ratio(np.eye(3, dtype=complex), -0.1)

    def test_beamspace_sparser_than_antenna_on_scenario(self):
        op = build_operator(8)
        cfg = ScenarioConfig(side=8, subcarriers=32, seed=3338)
        stats, _ = generate_scenario(cfg)
        system = assemble_q(stats)
        qb = to_beamspace(op, system, method="fft").matrix
        assert sparsity_ratio(qb) - sparsity_ratio(system.matrix) > 0.3
