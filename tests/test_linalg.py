import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from ltbf.cholqr import RankDeficiencyError, cholesky_qr2
from ltbf.linalg import (
    CholeskyBreakdownError,
    DimensionMismatchError,
    FlopCounter,
    JacobiConvergenceError,
    NotFiniteError,
    NotHermitianError,
    SingularTriangularError,
    cholesky,
    fro_norm,
    gemm,
    hermitian_evd_small,
    trsm_right_upper_ct,
)
from oracles import (
    cholesky_oracle,
    direct_inverse_oracle,
    full_evd_oracle,
    hermitian_evd_small_oracle,
    trsm_right_upper_ct_oracle,
)

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def hermitian(n, seed, shift=0.0):
    a = helpers.random_complex((n, n), seed)
    h = a + a.conj().T
    return h + shift * np.eye(n)


def hpd(n, seed):
    a = helpers.random_complex((n, n), seed)
    return a @ a.conj().T + np.eye(n)


def with_spectrum(vals, seed):
    """Exactly Hermitian matrix with the given spectrum, random eigenbasis."""
    b, _ = helpers.synthetic_hermitian(vals, seed)
    return 0.5 * (b + b.conj().T)


def hpd_with_condition(q, log_cond, log_scale, seed):
    return with_spectrum(10.0 ** log_scale * np.logspace(0.0, -log_cond, q), seed)


hpd_draws = dict(q=st.integers(1, 64), log_cond=st.floats(0.0, 8.0),
                 log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 31))


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
        assert fro_norm(gemm(a.conj().T, b) - ref) <= 1e-12 * fro_norm(ref)
        c = helpers.random_complex((4, 6), 14)
        ref2 = helpers.triple_loop_gemm(a.conj().T, c.conj().T)
        got = gemm(a.conj().T, c.conj().T)
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
        # a 1-D operand, on either side
        for left, right in ((a, b[:4, 0]), (b[:, 0], a)):
            with pytest.raises(DimensionMismatchError, match="2-D"):
                gemm(left, right)


class TestMatrixGuards:
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

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError, match="square"):
            cholesky(hpd(6, 24)[:, :4])

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
        # a 1-D right-hand side and a factor that is not square
        for y, l in ((helpers.random_complex((4,), 37), np.eye(4)),
                     (helpers.random_complex((3, 4), 38),
                      helpers.random_complex((4, 5), 39))):
            with pytest.raises(DimensionMismatchError, match="square"):
                trsm_right_upper_ct(y, l)


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
        # no cap: past the Jacobi oracle's 64 the kernel still matches LAPACK
        a = hermitian(65, 49)
        vals, _ = hermitian_evd_small(a)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(a)[::-1])) \
            <= 1e-12 * fro_norm(a)

    def test_rejects_non_hermitian(self):
        a = helpers.random_complex((8, 8), 44)
        with pytest.raises(NotHermitianError):
            hermitian_evd_small(a + 10.0)

    def test_rotation_counter_multiple_of_12n(self):
        n = 10
        counter = FlopCounter()
        hermitian_evd_small_oracle(hermitian(n, 45), counter=counter)
        mults = counter.kernel_mults("jacobi_evd")
        assert mults > 0 and mults % (12 * n) == 0

    def test_diagonal_input_short_circuits(self):
        vals, vecs = hermitian_evd_small(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.array_equal(vals, [3.0, 2.0, 1.0])
        assert fro_norm(vecs.conj().T @ vecs - np.eye(3)) <= 1e-14

    def test_sweep_budget_exhaustion_raises(self):
        a = hermitian(12, 46)
        with pytest.raises(JacobiConvergenceError):
            hermitian_evd_small_oracle(a, max_sweeps=1, tol=1e-15)

    def test_nominal_count_is_fixed(self):
        q = 12
        for b in (hermitian(q, 47), np.diag(np.arange(q, 0.0, -1.0)).astype(complex)):
            counter = FlopCounter()
            hermitian_evd_small(b, counter=counter)
            assert counter.per_kernel["jacobi_evd"] == [9 * q ** 3 // 2] * 2

    def test_oracle_caps_and_checks_like_production(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_evd_small_oracle(np.eye(65, dtype=np.complex128))
        with pytest.raises(NotHermitianError):
            hermitian_evd_small_oracle(helpers.random_complex((8, 8), 48) + 10.0)


class TestDirectInverseOracle:
    def test_inverts(self):
        q = hpd(10, 50)
        x = direct_inverse_oracle(q)
        assert fro_norm(q @ x - np.eye(10)) <= 1e-11

    def test_matches_library_inverse(self):
        q = hpd(9, 51)
        assert fro_norm(direct_inverse_oracle(q) - np.linalg.inv(q)) <= 1e-10


class TestOracleKernels:
    """The loop kernels keep the contracts their production twins hold."""

    def test_cholesky_oracle_breakdown_index(self):
        v = helpers.random_complex((5, 1), 22)
        with pytest.raises(CholeskyBreakdownError, match="at pivot 1 "):
            cholesky_oracle(v @ v.conj().T)

    def test_breakdown_charged_like_production(self):
        v = helpers.random_complex((5, 1), 22)
        fast, slow = FlopCounter(), FlopCounter()
        for kernel, counter in ((cholesky, fast), (cholesky_oracle, slow)):
            with pytest.raises(CholeskyBreakdownError):
                kernel(v @ v.conj().T, counter=counter)
        assert fast.per_kernel == slow.per_kernel
        assert fast.kernel_mults("cholesky") > 0

    def test_trsm_oracle_zero_diagonal(self):
        l = np.eye(4, dtype=np.complex128)
        l[1, 1] = 0.0
        with pytest.raises(SingularTriangularError) as exc:
            trsm_right_upper_ct_oracle(helpers.random_complex((3, 4), 37), l)
        assert exc.value.index == 1

    def test_counts_equal_production(self):
        w, y = hpd(9, 38), helpers.random_complex((20, 9), 39)
        fast, slow = FlopCounter(), FlopCounter()
        trsm_right_upper_ct(y, cholesky(w, counter=fast), counter=fast)
        trsm_right_upper_ct_oracle(y, cholesky_oracle(w, counter=slow), counter=slow)
        assert fast.per_kernel == slow.per_kernel


class TestDualRoute:
    """Each LAPACK kernel against its loop oracle on random inputs.

    Tolerances scale with the conditioning the factor inherits: a q x q
    HPD matrix of condition kappa has a Cholesky factor of condition
    sqrt(kappa), and the two routes round differently.
    """

    @PROPERTY
    @given(**hpd_draws)
    def test_cholesky_factor_matches_oracle(self, q, log_cond, log_scale, seed):
        w = hpd_with_condition(q, log_cond, log_scale, seed)
        l, lo = cholesky(w), cholesky_oracle(w)
        assert np.array_equal(np.tril(l), l)
        assert np.all(np.diagonal(l).imag == 0.0)
        assert fro_norm(l - lo) <= q * EPS * 10.0 ** (log_cond / 2) * fro_norm(lo)
        assert fro_norm(l @ l.conj().T - w) <= 4 * q * EPS * fro_norm(w)

    @PROPERTY
    @given(rows=st.integers(0, 200), **hpd_draws)
    def test_trsm_matches_oracle(self, rows, q, log_cond, log_scale, seed):
        l = cholesky_oracle(hpd_with_condition(q, log_cond, log_scale, seed))
        y = helpers.random_complex((q + rows, q), seed + 1)
        z, zo = trsm_right_upper_ct(y, l), trsm_right_upper_ct_oracle(y, l)
        assert fro_norm(z - zo) <= q * EPS * 10.0 ** (log_cond / 2) * fro_norm(zo)

    @PROPERTY
    @given(**hpd_draws)
    def test_eigenvalues_match_oracle(self, q, log_cond, log_scale, seed):
        b = hpd_with_condition(q, log_cond, log_scale, seed)
        vals, vecs = hermitian_evd_small(b)
        vals_o, _ = hermitian_evd_small_oracle(b)
        assert np.max(np.abs(vals - vals_o)) <= 1e-12 * fro_norm(b)
        assert fro_norm(vecs.conj().T @ vecs - np.eye(q)) <= 4 * q * EPS

    @PROPERTY
    @given(sizes=st.lists(st.integers(1, 16), min_size=1, max_size=6).filter(
        lambda m: sum(m) <= 64), log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2 ** 31))
    def test_cluster_projectors_match_oracle(self, sizes, log_scale, seed):
        # eigenvector phases differ between LAPACK and Jacobi, and inside a
        # cluster so does the basis, but the projector onto each cluster
        # is unique; clusters sit at k, k - 1, ..., 1 with 1e-6 jitter
        rng = np.random.default_rng(seed)
        centers = np.repeat(np.arange(len(sizes), 0.0, -1.0), sizes)
        jitter = 1.0 + 1e-6 * rng.uniform(-1.0, 1.0, centers.size)
        b = with_spectrum(10.0 ** log_scale * centers * jitter, seed)
        gap = 10.0 ** log_scale * (1.0 - 2e-6)
        (_, vecs), (_, vecs_o) = hermitian_evd_small(b), hermitian_evd_small_oracle(b)
        edges = np.cumsum([0] + sizes)
        for lo, hi in zip(edges[:-1], edges[1:]):
            p, po = vecs[:, lo:hi], vecs_o[:, lo:hi]
            diff = p @ p.conj().T - po @ po.conj().T
            assert fro_norm(diff) <= 1e-12 * fro_norm(b) / gap


class TestEdgeCases:
    def test_pivot_below_floor_that_lapack_accepts(self):
        w = np.diag([1.0, 1e-17, 1.0, 1e-18]).astype(np.complex128)
        assert np.all(np.diagonal(np.linalg.cholesky(w)).real > 0.0)
        with pytest.raises(CholeskyBreakdownError,
                           match=r"at pivot 1 \(value 1\.000e-17\)"):
            cholesky(w)

    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(1, 16), seed=st.integers(0, 2 ** 31),
           rank=st.integers(0, 16), indefinite=st.booleans())
    def test_lapack_rejection_raises_and_the_oracle_agrees(self, q, seed, rank,
                                                           indefinite):
        # the loop breaks down too; a pivot at round-off level may fall
        # either side of the floor on the two routes, so where the loop
        # passes it only the size of its smallest pivot is held
        v = helpers.random_complex((q, min(rank, q)), seed)
        signs = np.where(np.arange(v.shape[1]) % 2 & indefinite, -1.0, 1.0)
        w = (v * signs) @ v.conj().T
        try:
            np.linalg.cholesky(w)
        except np.linalg.LinAlgError:
            pass
        else:
            assume(False)
        with pytest.raises(CholeskyBreakdownError):
            cholesky(w)
        tol = 1e-10 * np.max(np.abs(w))
        try:
            lo = cholesky_oracle(w)
        except CholeskyBreakdownError:
            return
        assert np.min(np.diagonal(lo).real ** 2) <= tol

    def test_indefinite_and_zero_grams_break_down_on_both_routes(self):
        w = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=np.complex128)
        for m in (w, np.zeros((3, 3), dtype=np.complex128)):
            for kernel in (cholesky, cholesky_oracle):
                with pytest.raises(CholeskyBreakdownError):
                    kernel(m)

    @pytest.mark.parametrize("n, seed", [(5, 22), (6, 22), (6, 90), (6, 91)])
    def test_rank_one_gram_breaks_down(self, n, seed):
        v = helpers.random_complex((n, 1), seed)
        with pytest.raises(CholeskyBreakdownError):
            cholesky(v @ v.conj().T)

    def test_dependent_columns_reach_rank_deficiency(self):
        a = helpers.random_complex((24, 5), 92)
        a[:, 4] = 2.0 * a[:, 1] - a[:, 2]
        with pytest.raises(RankDeficiencyError):
            cholesky_qr2(a)

    def test_nonfinite_factor_does_not_leak_linalg_error(self):
        l = np.eye(3, dtype=np.complex128)
        l[2, 0] = np.inf
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(l)
        with pytest.raises(NotFiniteError):
            trsm_right_upper_ct(helpers.random_complex((4, 3), 93), l)

    def test_singular_factor_raises_not_finite_from_linalg_error(self):
        # finite, no zero diagonal, yet LAPACK reports it singular
        l = np.array([[1e-200, 0.0], [1e200, 1e-200]], dtype=np.complex128)
        with pytest.raises(NotFiniteError) as exc:
            trsm_right_upper_ct(helpers.random_complex((3, 2), 96), l)
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)

    def test_subnormal_diagonal_raises_not_finite(self):
        # LAPACK inverts a subnormal pivot to inf without an error, and
        # the product then turns it into NaN
        l = np.diag([1.0, 1e-320, 1.0]).astype(np.complex128)
        with pytest.raises(NotFiniteError):
            trsm_right_upper_ct(helpers.random_complex((4, 3), 97), l)

    @pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [(1, 0), (1, 1)])
    def test_nonfinite_factor_raises_not_finite(self, special, at):
        # LAPACK inverts a NaN factor to NaN and an infinite diagonal
        # entry to a zero column, without an error
        l = np.eye(3, dtype=np.complex128)
        l[at] = special
        with pytest.raises(NotFiniteError):
            trsm_right_upper_ct(helpers.random_complex((4, 3), 94), l)

    @pytest.mark.parametrize("special", [np.nan, np.inf])
    @pytest.mark.parametrize("kernel", [cholesky, hermitian_evd_small])
    def test_nonfinite_gram_raises_not_finite(self, kernel, special):
        # LAPACK turns a NaN Gram into an all-NaN factor and NaN eigenvalues
        # without an error; an inf Gram read as a breakdown at pivot 0
        w = hpd(4, 95)
        w[0, 0] = special
        with pytest.raises(NotFiniteError):
            kernel(w)

    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(1, 8), seed=st.integers(0, 2 ** 31),
           special=st.sampled_from([0.0, 1e-300, 1e300, np.inf, np.nan]),
           rank=st.integers(0, 8))
    def test_no_linalg_error_escapes(self, q, seed, special, rank):
        # low rank, indefinite, tiny, huge and non-finite inputs meet only
        # the documented errors; float warnings are expected on these
        v = helpers.random_complex((q, min(rank, q)), seed)
        signs = np.where(np.arange(v.shape[1]) % 2, -1.0, 1.0)
        w = (v * signs) @ v.conj().T
        w[0, 0] = special
        documented = (CholeskyBreakdownError, NotHermitianError,
                      SingularTriangularError, JacobiConvergenceError,
                      NotFiniteError)
        for kernel in (cholesky, hermitian_evd_small,
                       lambda m: trsm_right_upper_ct(np.ones((2, q)), np.tril(m))):
            try:
                with np.errstate(all="ignore"):
                    kernel(w)
            except documented:
                pass
