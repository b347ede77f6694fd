import numpy as np
import pytest

import helpers
from ltbf.linalg import (
    CholeskyBreakdownError,
    DimensionMismatchError,
    FlopCounter,
    JacobiConvergenceError,
    NotFiniteError,
    NotHermitianError,
    SingularTriangularError,
    as_cmatrix,
    cholesky,
    direct_inverse_oracle,
    fro_norm,
    full_evd_oracle,
    gemm,
    hermitian_evd_small,
    trsm_right_upper_ct,
)


def hermitian(n, seed, shift=0.0):
    a = helpers.random_complex((n, n), seed)
    h = a + a.conj().T
    return h + shift * np.eye(n)


def hpd(n, seed):
    a = helpers.random_complex((n, n), seed)
    return a @ a.conj().T + np.eye(n)


class TestGemm:
    def test_matches_triple_loop(self):
        a = helpers.random_complex((5, 7), 10)
        b = helpers.random_complex((7, 4), 11)
        ref = helpers.triple_loop_gemm(a, b)
        assert fro_norm(gemm(a, b) - ref) <= 1e-12 * fro_norm(ref)

    def test_conjugate_variants(self):
        a = helpers.random_complex((6, 3), 12)
        b = helpers.random_complex((6, 4), 13)
        ref = helpers.triple_loop_gemm(a.conj().T, b)
        assert fro_norm(gemm(a, b, conj_a=True) - ref) <= 1e-12 * fro_norm(ref)
        c = helpers.random_complex((4, 6), 14)
        ref2 = helpers.triple_loop_gemm(a.conj().T, c.conj().T)
        got = gemm(a, c, conj_a=True, conj_b=True)
        assert fro_norm(got - ref2) <= 1e-12 * fro_norm(ref2)

    def test_counter_charges_textbook_counts(self):
        a = helpers.random_complex((3, 6), 15)
        b = helpers.random_complex((6, 5), 16)
        counter = FlopCounter()
        gemm(a, b, counter=counter)
        assert counter.kernel_mults("gemm") == 3 * 5 * 6
        assert counter.per_kernel["gemm"][1] == 3 * 5 * 5

    def test_out_block_receives_the_same_product(self):
        a = helpers.random_complex((48, 48), 19)
        b = helpers.random_complex((48, 48), 20)
        out = np.empty((48, 48), dtype=np.complex128)
        assert gemm(a, b, out=out) is out
        assert np.array_equal(out, gemm(a, b))

    def test_shape_mismatch_raises(self):
        a = helpers.random_complex((3, 4), 17)
        b = helpers.random_complex((5, 2), 18)
        with pytest.raises(DimensionMismatchError):
            gemm(a, b)


class TestMatrixGuards:
    def test_as_cmatrix_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NotFiniteError):
            as_cmatrix(bad)

    def test_as_cmatrix_rejects_wrong_ndim(self):
        with pytest.raises(DimensionMismatchError):
            as_cmatrix(np.ones(4))

    def test_fro_norm(self):
        assert fro_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)


class TestCholesky:
    def test_reconstruction(self):
        w = hpd(12, 20)
        l = cholesky(w)
        assert np.allclose(np.triu(l, 1), 0.0)
        assert np.all(np.diag(l).real > 0.0)
        assert np.all(np.diag(l).imag == 0.0)
        assert fro_norm(l @ l.conj().T - w) <= 1e-12 * fro_norm(w)

    def test_rejects_non_hermitian(self):
        a = helpers.random_complex((6, 6), 21)
        with pytest.raises(NotHermitianError):
            cholesky(a + 10.0)

    def test_breakdown_carries_pivot_index(self):
        v = helpers.random_complex((5, 1), 22)
        rank1 = v @ v.conj().T
        with pytest.raises(CholeskyBreakdownError) as exc:
            cholesky(rank1)
        assert exc.value.index == 1

    def test_counter_positive(self):
        counter = FlopCounter()
        cholesky(hpd(8, 23), counter=counter)
        assert counter.kernel_mults("cholesky") > 0


class TestTrsm:
    def test_solves_against_conjugate_transpose(self):
        l = cholesky(hpd(5, 30))
        y = helpers.random_complex((9, 5), 31)
        z = trsm_right_upper_ct(y, l)
        assert fro_norm(z @ l.conj().T - y) <= 1e-12 * fro_norm(y)

    def test_counter_exact(self):
        n, q = 7, 4
        l = cholesky(hpd(q, 32))
        counter = FlopCounter()
        trsm_right_upper_ct(helpers.random_complex((n, q), 33), l, counter=counter)
        assert counter.kernel_mults("trsm") == n * q * (q + 1) // 2

    def test_zero_diagonal_raises_with_index(self):
        l = np.eye(4, dtype=np.complex128)
        l[2, 2] = 0.0
        with pytest.raises(SingularTriangularError) as exc:
            trsm_right_upper_ct(helpers.random_complex((3, 4), 34), l)
        assert exc.value.index == 2

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trsm_right_upper_ct(helpers.random_complex((3, 4), 35),
                                helpers.random_complex((5, 5), 36))


class TestJacobiEVD:
    def test_construct_then_recover(self):
        vals_in = np.linspace(9.0, 1.0, 12)
        a, u = helpers.synthetic_hermitian(vals_in, 40)
        vals, vecs = hermitian_evd_small(a)
        assert np.max(np.abs(vals - vals_in) / vals_in) <= 1e-12
        # each recovered vector matches the construction up to phase
        overlap = np.abs(np.einsum("ij,ij->j", u.conj(), vecs))
        assert np.min(overlap) >= 1.0 - 1e-10

    def test_descending_order_and_unitarity(self):
        a = hermitian(16, 41)
        vals, vecs = hermitian_evd_small(a)
        assert np.all(np.diff(vals) <= 1e-12)
        assert fro_norm(vecs.conj().T @ vecs - np.eye(16)) <= 1e-12
        recon = (vecs * vals) @ vecs.conj().T
        assert fro_norm(recon - a) <= 1e-11 * fro_norm(a)

    def test_trace_identity(self):
        a = hermitian(20, 42)
        vals, _ = hermitian_evd_small(a)
        assert abs(np.sum(vals) - np.real(np.trace(a))) <= 1e-11 * fro_norm(a)

    def test_matches_tighter_oracle(self):
        a = hermitian(24, 43)
        vals_small, _ = hermitian_evd_small(a)
        vals_full, _ = full_evd_oracle(a)
        assert np.max(np.abs(vals_small - vals_full)) <= 1e-11 * fro_norm(a)

    def test_dimension_caps(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_evd_small(np.eye(65, dtype=np.complex128))
        full_evd_oracle(np.eye(65, dtype=np.complex128))  # oracle admits more

    def test_rejects_non_hermitian(self):
        a = helpers.random_complex((8, 8), 44)
        with pytest.raises(NotHermitianError):
            hermitian_evd_small(a + 10.0)

    def test_rotation_counter_multiple_of_12n(self):
        n = 10
        counter = FlopCounter()
        hermitian_evd_small(hermitian(n, 45), counter=counter)
        mults = counter.kernel_mults("jacobi_evd")
        assert mults > 0 and mults % (12 * n) == 0

    def test_diagonal_input_short_circuits(self):
        vals, vecs = hermitian_evd_small(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.array_equal(vals, [3.0, 2.0, 1.0])
        assert fro_norm(vecs.conj().T @ vecs - np.eye(3)) <= 1e-14

    def test_sweep_budget_exhaustion_raises(self):
        a = hermitian(12, 46)
        with pytest.raises(JacobiConvergenceError):
            hermitian_evd_small(a, max_sweeps=1, tol=1e-15)


class TestDirectInverseOracle:
    def test_inverts(self):
        q = hpd(10, 50)
        x = direct_inverse_oracle(q)
        assert fro_norm(q @ x - np.eye(10)) <= 1e-11

    def test_matches_library_inverse(self):
        q = hpd(9, 51)
        assert fro_norm(direct_inverse_oracle(q) - np.linalg.inv(q)) <= 1e-10
