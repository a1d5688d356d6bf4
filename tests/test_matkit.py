import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hfsem import matkit, models
from hfsem.errors import NotPositiveDefiniteError


class TestVech:
    def test_two_by_two(self):
        assert np.array_equal(matkit.vech([[1, 2], [2, 3]]), [1, 2, 3])

    def test_zero_matrix(self):
        assert np.array_equal(matkit.vech(np.zeros((3, 3))), np.zeros(6))

    def test_true_covariance(self, sigma0_oracle):
        v = matkit.vech(sigma0_oracle)
        assert v.shape == (55,)
        assert v[0] == 13.0

    def test_column_major_order(self):
        a = np.array([[1.0, 2.0, 3.0],
                      [2.0, 4.0, 5.0],
                      [3.0, 5.0, 6.0]])
        assert np.array_equal(matkit.vech(a), [1, 2, 3, 4, 5, 6])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matkit.vech(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            matkit.vech([[1.0, 2.0], [0.0, 1.0]])


class TestDuplicationMatrix:
    def test_order_one(self):
        assert np.array_equal(matkit.duplication_matrix(1), [[1.0]])

    def test_order_two_rows(self):
        d = matkit.duplication_matrix(2)
        expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1.0]])
        assert np.array_equal(d, expected)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            matkit.duplication_matrix(0)

    def test_order_ten_on_random_matrices(self):
        rng = np.random.default_rng(1)
        d = matkit.duplication_matrix(10)
        assert d.shape == (100, 55)
        for _ in range(100):
            a = rng.standard_normal((10, 10))
            a = a + a.T
            assert np.array_equal(d @ matkit.vech(a), a.flatten(order="F"))

    @settings(max_examples=25, deadline=None)
    @given(p=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
    def test_vech_vec_identities(self, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((p, p))
        a = a + a.T
        d = matkit.duplication_matrix(p)
        assert np.array_equal(d @ matkit.vech(a), a.flatten(order="F"))
        dp = np.linalg.pinv(d)
        assert np.abs(dp @ a.flatten(order="F") - matkit.vech(a)).max() < 1e-12


class TestPinv:
    """The duplication matrix's Moore-Penrose pseudoinverse."""

    def test_duplication_left_inverse(self):
        d = matkit.duplication_matrix(2)
        dp = np.linalg.pinv(d)
        assert dp.shape == (3, 4)
        assert np.abs(dp @ d - np.eye(3)).max() < 1e-12


class TestCholLogdet:
    def test_identity(self):
        logdet, inv = matkit.chol_logdet(np.eye(4))
        assert logdet == 0.0
        assert np.array_equal(inv, np.eye(4))

    def test_diagonal(self):
        logdet, inv = matkit.chol_logdet(np.diag([4.0, 9.0]))
        assert abs(logdet - np.log(36.0)) < 1e-14
        assert np.allclose(inv, np.diag([0.25, 1.0 / 9.0]), atol=1e-15)

    def test_true_model_covariance(self, model1, sigma0_oracle):
        sigma = model1.sigma(models.THETA1_TRUE)
        logdet, inv = matkit.chol_logdet(sigma)
        assert np.isfinite(logdet)
        assert np.abs(sigma @ inv - np.eye(10)).max() < 1e-10
        sign, ref = np.linalg.slogdet(sigma0_oracle)
        assert sign > 0 and abs(logdet - ref) < 1e-9

    def test_eigenvalue_product_oracle(self):
        rng = np.random.default_rng(3)
        for p in [2, 5, 8, 12]:
            b = rng.standard_normal((p, p))
            a = b @ b.T + p * np.eye(p)
            logdet, _ = matkit.chol_logdet(a)
            assert abs(logdet - np.sum(np.log(np.linalg.eigvalsh(a)))) < 1e-9

    def test_signals_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            matkit.chol_logdet(np.diag([1.0, -1.0]))


class TestUncheckedKernel:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            matkit.chol_logdet(a)

    def test_indefinite_signalled(self):
        with pytest.raises(NotPositiveDefiniteError):
            matkit.chol_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_equals_scipy_cholesky(self, model1):
        # the LAPACK calls of scipy's cho_factor/cho_solve, made directly
        sigma = model1.sigma(models.THETA1_TRUE)
        c = scipy.linalg.cho_factor(sigma, lower=True, check_finite=False)
        inv = scipy.linalg.cho_solve(c, np.eye(10), check_finite=False)
        logdet, kernel_inv = matkit.chol_logdet(sigma)
        assert logdet == 2.0 * float(np.sum(np.log(np.diag(c[0]))))
        assert np.array_equal(kernel_inv, 0.5 * (inv + inv.T))
        assert matkit.chol_logdet(sigma)[0] == logdet
        assert np.array_equal(matkit.chol_logdet(sigma)[1], kernel_inv)

    def test_public_entry_checks_symmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            matkit.chol_logdet(np.array([[2.0, 1.0], [0.0, 2.0]]))


class TestNumericRank:
    def test_identity(self):
        assert matkit.numeric_rank(np.eye(5)) == 5

    def test_outer_product(self):
        u = np.array([1.0, -2.0, 3.0])
        v = np.array([4.0, 5.0])
        assert matkit.numeric_rank(np.outer(u, v)) == 1

    def test_model1_jacobian_rank(self, model1):
        delta = model1.jacobian(models.THETA1_TRUE)
        assert matkit.numeric_rank(delta) == 22

    def test_zero_matrix(self):
        assert matkit.numeric_rank(np.zeros((3, 4))) == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            matkit.numeric_rank(a)
