import numpy as np
import pytest

import helpers
from ltbf import cholqr, randevd
from ltbf.cholqr import RankDeficiencyError
from ltbf.linalg import (DimensionMismatchError, FlopCounter, NotHermitianError,
                         fro_norm)
from ltbf.randevd import gaussian_start_block, randomized_evd
from ltbf.scenario import ScenarioConfig, assemble_q, generate_scenario
from oracles import (cholesky_oracle, full_evd_oracle, hermitian_evd_small_oracle,
                     trsm_right_upper_ct_oracle)


def clustered_matrix(n, top_vals, seed):
    """Spectrum [top_vals..., 1, 1, ..., 1] with a random eigenbasis."""
    vals = np.concatenate([np.asarray(top_vals, float),
                           np.ones(n - len(top_vals))])
    a, u = helpers.synthetic_hermitian(vals, seed)
    return a, u, vals


class TestStartBlock:
    def test_deterministic(self):
        assert np.array_equal(gaussian_start_block(16, 4, 5),
                              gaussian_start_block(16, 4, 5))
        assert not np.array_equal(gaussian_start_block(16, 4, 5),
                                  gaussian_start_block(16, 4, 6))

    def test_unit_variance_circular(self):
        block = gaussian_start_block(4096, 4, 9)
        power = np.mean(np.abs(block) ** 2)
        assert abs(power - 1.0) <= 0.05
        assert abs(np.mean(block)) <= 0.05
        # real and imaginary parts carry half the power each
        assert abs(np.mean(block.real ** 2) - 0.5) <= 0.05

    def test_column_gram_concentrates(self):
        block = gaussian_start_block(4096, 4, 10)
        gram = block.conj().T @ block / 4096.0
        assert helpers.spectral_norm(gram - np.eye(4)) <= 0.1


class TestRecovery:
    def test_diagonal_dominant_modes(self):
        # Rayleigh-Ritz eigenvalue error floors out near (lambda_3/lambda_2)^(2p)
        # times the spread, about 1e-5 here, so the tolerance reflects that
        a = np.diag(np.array([10.0, 5.0, 1.0, 0.1])).astype(complex)
        res = randomized_evd(a, 2, 4, seed=100)
        assert np.max(np.abs(res.eigvals - [10.0, 5.0])) <= 1e-4
        assert abs(res.eigvals[0] - 10.0) <= 1e-5
        # eigenvectors align with the standard basis up to phase
        for i in range(2):
            assert abs(abs(res.eigvecs[i, i]) - 1.0) <= 1e-4

    def test_isotropic(self):
        res = randomized_evd(np.eye(12, dtype=complex), 4, 1, seed=101)
        assert np.max(np.abs(res.eigvals - 1.0)) <= 1e-12
        assert fro_norm(res.eigvecs.conj().T @ res.eigvecs - np.eye(4)) <= 1e-12

    def test_gap_spectrum_and_subspace(self):
        a, u, vals = clustered_matrix(64, np.linspace(40.0, 12.0, 8), 102)
        res = randomized_evd(a, 8, 4, seed=103)
        assert np.max(np.abs(res.eigvals - vals[:8]) / vals[:8]) <= 1e-4
        assert np.max(helpers.principal_angles(res.eigvecs, u[:, :8])) <= 1e-3

    def test_rank_above_64(self):
        # no cap on the width since the small EVD runs on LAPACK
        a, u, vals = clustered_matrix(96, np.linspace(40.0, 20.0, 66), 105)
        res = randomized_evd(a, 66, 4, seed=106)
        assert np.max(np.abs(res.eigvals - vals[:66]) / vals[:66]) <= 1e-6
        assert np.max(helpers.principal_angles(res.eigvecs, u[:, :66])) <= 1e-3

    def test_strongly_loaded_system_matrix(self):
        # eight well separated rank-one terms on top of the identity give a
        # wide eigengap at the truncation rank, so four power iterations pin
        # the leading subspace to oracle accuracy
        cfg = ScenarioConfig(side=8, n_ue=8, n_streams=1, paths_per_user=1,
                             snr_db_low=16.0, snr_db_high=26.0, subcarriers=16,
                             seed=501)
        stats, _ = generate_scenario(cfg)
        system = assemble_q(stats)
        vals, vecs = full_evd_oracle(system.matrix)
        res = randomized_evd(system.matrix, 8, 4, seed=508)
        assert np.max(helpers.principal_angles(res.eigvecs, vecs[:, :8])) <= 1e-3
        assert np.max(np.abs(res.eigvals - vals[:8]) / vals[:8]) <= 1e-6

    def test_basis_orthonormal(self):
        a, _, _ = clustered_matrix(48, [9.0, 7.0, 5.0, 3.0], 104)
        res = randomized_evd(a, 4, 3, seed=105)
        assert fro_norm(res.eigvecs.conj().T @ res.eigvecs - np.eye(4)) <= 1e-12

    def test_full_rank_sketch_matches_oracle(self):
        a = helpers.random_complex((12, 12), 106)
        a = a @ a.conj().T + np.eye(12)
        res = randomized_evd(a, 12, 3, seed=107)
        vals_o, _ = full_evd_oracle(a)
        assert np.max(np.abs(res.eigvals - vals_o) / np.abs(vals_o)) <= 1e-10

    @pytest.mark.parametrize("seed", [110, 111, 112, 113, 114])
    def test_more_power_iterations_never_hurt(self, seed):
        a, _, vals = clustered_matrix(64, np.linspace(20.0, 6.0, 8), 108)
        err = {}
        for p in (1, 4):
            res = randomized_evd(a, 8, p, seed=seed)
            err[p] = np.max(np.abs(res.eigvals - vals[:8]) / vals[:8])
        assert err[4] <= err[1] * (1.0 + 1e-9) + 1e-15

    def test_nonneg_eigenvalues_near_singular(self):
        vals = np.array([5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.01])
        a, _ = helpers.synthetic_hermitian(np.concatenate([vals, np.full(8, 1e-3)]), 109)
        res = randomized_evd(a, 8, 2, seed=115)
        assert np.all(res.eigvals >= 0.0)
        assert np.max(np.abs(res.eigvals[:7] - vals[:7])) <= 1e-6
        assert abs(res.eigvals[7] - 0.01) <= 1e-3


class TestShift:
    def test_weak_modes_come_out_of_the_unit_cluster(self):
        # modes at 1 + mu with mu <= 0.8 converge at 1/(1 + mu) per power
        # step on a itself, and at about delta/mu on a - (1 - delta) I
        top = [1.8, 1.6, 1.4, 1.2]
        a, u, vals = clustered_matrix(64, top, 140)
        err = {}
        for shift in (0.0, 1.0 - 1e-3):
            res = randomized_evd(a, 4, 3, seed=141, shift=shift)
            err[shift] = np.max(np.abs(res.eigvals - vals[:4]) / vals[:4])
        assert err[1.0 - 1e-3] <= 1e-6
        assert err[0.0] >= 1e-3

    def test_ritz_values_are_those_of_the_unshifted_matrix(self):
        a, u, vals = clustered_matrix(32, [6.0, 4.0, 2.0], 142)
        res = randomized_evd(a, 3, 4, seed=143, shift=0.999)
        assert np.max(np.abs(res.eigvals - vals[:3]) / vals[:3]) <= 1e-10
        assert np.max(helpers.principal_angles(res.eigvecs, u[:, :3])) <= 1e-6

    def test_thin_update_charged_per_power_step(self):
        a, _, _ = clustered_matrix(40, [5.0, 3.0], 146)
        counts = {}
        for shift in (0.0, 0.5):
            counter = FlopCounter()
            randomized_evd(a, 3, 4, seed=147, counter=counter, shift=shift)
            counts[shift] = counter
        assert counts[0.0].kernel_mults("col_scale") == 0
        assert counts[0.5].kernel_mults("col_scale") == 4 * 40 * 3
        assert counts[0.5].kernel_mults("gemm") == counts[0.0].kernel_mults("gemm")


class TestDeterminismAndEquivariance:
    def test_same_seed_bitwise(self):
        a, _, _ = clustered_matrix(32, [8.0, 6.0, 4.0], 120)
        r1 = randomized_evd(a, 3, 2, seed=121)
        r2 = randomized_evd(a, 3, 2, seed=121)
        assert np.array_equal(r1.eigvals, r2.eigvals)
        assert np.array_equal(r1.eigvecs, r2.eigvecs)

    def test_rotation_equivariant_spectrum(self, monkeypatch):
        a, _, _ = clustered_matrix(24, [9.0, 5.0, 2.0], 122)
        w = helpers.random_unitary_columns(24, 24, 123)
        res_a = randomized_evd(a, 3, 3, seed=124)
        # the rotated matrix starts from the rotated block
        monkeypatch.setattr(randevd, "gaussian_start_block",
                            lambda n, cols, seed: w @ gaussian_start_block(n, cols, seed))
        res_b = randomized_evd(w @ a @ w.conj().T, 3, 3, seed=124)
        assert np.max(np.abs(res_a.eigvals - res_b.eigvals)
                      / np.abs(res_a.eigvals)) <= 1e-9


class TestFailureModes:
    def test_rank_deficient_input_raises_after_one_draw(self, monkeypatch):
        v = helpers.random_complex((16, 1), 130)
        rank1 = v @ v.conj().T
        seeds = []

        def counted_block(n, cols, seed):
            seeds.append(seed)
            return gaussian_start_block(n, cols, seed)

        monkeypatch.setattr(randevd, "gaussian_start_block", counted_block)
        # a G is rank deficient for every G, so no second draw is made
        with pytest.raises(RankDeficiencyError):
            randomized_evd(rank1, 3, 2, seed=131)
        assert seeds == [131]

    def test_rank_bounds(self):
        a = np.eye(8, dtype=complex)
        with pytest.raises(DimensionMismatchError):
            randomized_evd(a, 0, 1, seed=1)
        with pytest.raises(DimensionMismatchError):
            randomized_evd(a, 9, 1, seed=1)

    def test_power_iters_validated(self):
        with pytest.raises(ValueError):
            randomized_evd(np.eye(8, dtype=complex), 2, 0, seed=1)

    def test_non_hermitian_rejected(self):
        a = helpers.random_complex((8, 8), 132)
        with pytest.raises(NotHermitianError):
            randomized_evd(a + 10.0, 2, 1, seed=1)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            randomized_evd(np.ones((4, 5), dtype=complex), 2, 1, seed=1)


class TestProductionKernels:
    """The sketch on the LAPACK kernels matches it on their loop oracles."""

    def sketch(self):
        a, _, _ = clustered_matrix(48, np.linspace(30.0, 2.0, 16), 140)
        return randomized_evd(a, 16, 4, seed=141, shift=0.9)

    def test_matches_sketch_on_oracle_kernels(self, monkeypatch):
        res = self.sketch()
        monkeypatch.setattr(cholqr, "cholesky", cholesky_oracle)
        monkeypatch.setattr(cholqr, "trsm_right_upper_ct",
                            trsm_right_upper_ct_oracle)
        monkeypatch.setattr(randevd, "hermitian_evd_small",
                            hermitian_evd_small_oracle)
        ref = self.sketch()
        assert np.max(np.abs(res.eigvals - ref.eigvals)) <= 1e-12 * ref.eigvals[0]
        assert np.max(helpers.principal_angles(res.eigvecs, ref.eigvecs)) <= 1e-8
