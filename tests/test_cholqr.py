import numpy as np
import pytest

import helpers
from ltbf import cholqr
from ltbf.cholqr import RankDeficiencyError, cholesky_qr2
from ltbf.linalg import (
    DimensionMismatchError,
    FlopCounter,
    cholesky,
    fro_norm,
    gemm,
    trsm_right_upper_ct,
)


def one_pass_q(a):
    """Single Cholesky-QR pass, assembled from the raw kernels."""
    w = gemm(a.conj().T, a)
    return trsm_right_upper_ct(a, cholesky(w))


def orth_defect(q):
    k = q.shape[1]
    return fro_norm(q.conj().T @ q - np.eye(k))


def qr_factors(a):
    """(q, r) with r = q^H a, the triangular factor cholesky_qr2 leaves out."""
    q = cholesky_qr2(a)
    return q, q.conj().T @ a


@pytest.fixture
def cholesky_inputs(monkeypatch):
    """The Gram matrices cholesky_qr2 factors, in call order, so the calls
    themselves show a retry."""
    seen = []

    def spy(w, counter=None):
        seen.append(w)
        return cholesky(w, counter=counter)

    monkeypatch.setattr(cholqr, "cholesky", spy)
    return seen


class TestBasics:
    def test_orthonormal_input_is_fixed_point(self, cholesky_inputs):
        a = helpers.random_unitary_columns(20, 5, 60)
        q, r = qr_factors(a)
        assert fro_norm(q - a) <= 1e-13
        assert fro_norm(r - np.eye(5)) <= 1e-13
        # no shifted retry: one Cholesky per pass
        assert len(cholesky_inputs) == 2

    def test_orthogonality_and_reconstruction(self):
        a = helpers.random_complex((40, 6), 61)
        q, r = qr_factors(a)
        assert orth_defect(q) <= 1e-13
        assert fro_norm(q @ r - a) <= 1e-13 * fro_norm(a)

    def test_r_upper_triangular_positive_diagonal(self):
        a = helpers.random_complex((30, 5), 62)
        r = qr_factors(a)[1]
        assert np.allclose(np.tril(r, -1), 0.0, atol=1e-14)
        assert np.all(np.diag(r).real > 0.0)
        assert np.max(np.abs(np.diag(r).imag)) <= 1e-13 * np.max(np.abs(r))

    def test_single_column(self):
        a = helpers.random_complex((10, 1), 63)
        q, r = qr_factors(a)
        assert abs(np.linalg.norm(q) - 1.0) <= 1e-13
        assert abs(r[0, 0] - np.linalg.norm(a)) <= 1e-12 * np.linalg.norm(a)

    def test_spans_same_subspace_as_mgs(self):
        a = helpers.random_complex((64, 4), 64)
        q = cholesky_qr2(a)
        ref = helpers.mgs_columns(a)
        assert np.max(helpers.principal_angles(q, ref)) <= 1e-10

    def test_scaled_axes(self, cholesky_inputs):
        a = np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 3.0]], dtype=np.complex128)
        q, r = qr_factors(a)
        expected_q = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        assert fro_norm(q - expected_q) <= 1e-14
        assert fro_norm(r - np.diag([2.0, 3.0])) <= 1e-14
        # no shifted retry: one Cholesky per pass
        assert len(cholesky_inputs) == 2

    def test_deterministic(self):
        a = helpers.random_complex((33, 5), 65)
        q1, r1 = qr_factors(a)
        q2, r2 = qr_factors(a)
        assert np.array_equal(q1, q2)
        assert np.array_equal(r1, r2)


class TestConditioning:
    @pytest.mark.parametrize("seed", [70, 71, 72])
    def test_condition_1e4_stays_clean(self, seed):
        a = helpers.conditioned_block(256, 8, 1e4, seed)
        q, r = qr_factors(a)
        assert orth_defect(q) <= 1e-10
        assert fro_norm(q @ r - a) <= 1e-10 * fro_norm(a)

    def test_second_pass_strictly_improves(self):
        a = helpers.conditioned_block(128, 6, 1e4, 73)
        err_one = orth_defect(one_pass_q(a))
        err_two = orth_defect(cholesky_qr2(a))
        assert err_two < err_one
        assert err_two <= 1e-12

    def test_shifted_retry_recovers_extreme_conditioning(self, cholesky_inputs):
        a = helpers.conditioned_block(64, 6, 1e8, 78)
        q = cholesky_qr2(a)
        # the first Gram breaks down and is factored again with a positive
        # diagonal shift, then the second pass factors once
        assert len(cholesky_inputs) == 3
        first, shifted = cholesky_inputs[:2]
        assert np.min(np.diag(shifted - first).real) > 0.0
        assert orth_defect(q) <= 1e-10

    def test_shifted_retry_is_charged(self):
        # the factorization that breaks down is charged like any other:
        # three 6 x 6 factorizations against two for a well-conditioned block
        one = FlopCounter()
        cholesky(np.eye(6, dtype=np.complex128), counter=one)
        hard, easy = FlopCounter(), FlopCounter()
        cholesky_qr2(helpers.conditioned_block(64, 6, 1e8, 78), counter=hard)
        cholesky_qr2(helpers.conditioned_block(64, 6, 1e2, 78), counter=easy)
        assert hard.kernel_mults("cholesky") == 3 * one.kernel_mults("cholesky")
        assert easy.kernel_mults("cholesky") == 2 * one.kernel_mults("cholesky")

    def test_exactly_dependent_columns_raise(self):
        # the shifted first pass leaves a dead direction, so the second
        # Gram breaks down with the retry budget already spent
        a = helpers.random_complex((32, 4), 75)
        a[:, 3] = a[:, 0]
        with pytest.raises(RankDeficiencyError):
            cholesky_qr2(a)

    def test_rank_one_block_raises(self):
        v = helpers.random_complex((32, 1), 76)
        with pytest.raises(RankDeficiencyError):
            cholesky_qr2(np.hstack([v, 2.0 * v, 3.0 * v]))

    def test_zero_block_raises(self):
        with pytest.raises(RankDeficiencyError):
            cholesky_qr2(np.zeros((16, 3), dtype=np.complex128))


class TestInterface:
    def test_wide_block_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cholesky_qr2(helpers.random_complex((3, 5), 80))

    def test_one_dim_rejected(self):
        with pytest.raises(DimensionMismatchError):
            cholesky_qr2(np.ones(7, dtype=np.complex128))

    def test_counter_totals(self):
        n, k = 50, 4
        counter = FlopCounter()
        cholesky_qr2(helpers.random_complex((n, k), 81), counter=counter)
        # the two Gram products and nothing else
        assert counter.kernel_mults("gemm") == 2 * n * k * k
        assert counter.kernel_mults("trsm") == 2 * (n * k * (k + 1) // 2)
        assert counter.kernel_mults("cholesky") > 0
