import numpy as np
import pytest

from hfsem import diffsim, models
from hfsem.errors import NotPositiveDefiniteError
from hfsem.qlik import LikelihoodSurface, QuadVar, limit_loglik, quad_var
from tests.conftest import fd_hessian, interior_theta, make_structural_spec


class TestQuadVar:
    def test_constant_path_is_zero(self):
        x = np.tile([1.0, 2.0, 3.0], (10, 1))
        assert np.array_equal(quad_var(x, 1.0).q_xx, np.zeros((3, 3)))

    def test_single_increment_outer_product(self):
        v = np.array([1.0, -2.0])
        x = np.vstack([np.zeros(2), v])
        assert np.allclose(quad_var(x, 1.0).q_xx, np.outer(v, v), atol=1e-15)

    def test_scaling_by_horizon(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3)).cumsum(axis=0)
        q1 = quad_var(x, 1.0).q_xx
        q2 = quad_var(x, 2.0).q_xx
        assert np.allclose(q1, 2.0 * q2, atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            quad_var(np.ones((1, 3)), 1.0)
        with pytest.raises(ValueError):
            quad_var(np.ones((5, 3)), 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_path_rejected(self, bad):
        x = np.random.default_rng(0).standard_normal((20, 3)).cumsum(axis=0)
        x[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quad_var(x, 1.0)

    def test_positive_semidefinite(self, quadvar_1e4):
        eig = np.linalg.eigvalsh(quadvar_1e4.q_xx)
        assert eig.min() >= -1e-10 * np.trace(quadvar_1e4.q_xx)


class TestLikelihoodValue:
    def test_identity_covariance_case(self, scalar_model):
        # theta = 1 makes the implied covariance the identity
        q = np.array([[0.7, 0.1], [0.1, 1.9]])
        surface = LikelihoodSurface(scalar_model, QuadVar(q, n=25, T=1.0))
        assert abs(surface.value([1.0]) - (-25 / 2 * np.trace(q))) < 1e-12

    def test_covariance_equal_to_quadvar(self, model1):
        sigma = model1.sigma(models.THETA1_TRUE)
        surface = LikelihoodSurface(model1, QuadVar(sigma, n=50, T=1.0))
        logdet = np.linalg.slogdet(sigma)[1]
        expected = -(50 / 2) * (10 + logdet)
        assert abs(surface.value(models.THETA1_TRUE) - expected) < 1e-9 * abs(expected)

    def test_matches_increment_sum_oracle(self, scalar_model):
        rng = np.random.default_rng(4)
        n, p, T = 10, 2, 1.0
        x = rng.standard_normal((n + 1, p)).cumsum(axis=0) * 0.3
        surface = LikelihoodSurface(scalar_model, quad_var(x, T))
        h = T / n
        for theta in ([0.5], [1.7], [3.0]):
            sigma = scalar_model.sigma(theta)
            inv = np.linalg.inv(sigma)
            logdet = np.linalg.slogdet(sigma)[1]
            dx = np.diff(x, axis=0)
            direct = sum(-0.5 * logdet - (dxi @ inv @ dxi) / (2 * h) for dxi in dx)
            ours = surface.value(theta)
            assert abs(ours - direct) < 1e-9 * (1 + abs(direct))

    def test_increment_sum_oracle_full_model(self, model1):
        rng = np.random.default_rng(8)
        bundle = diffsim.simulate_true_model(40, 1.0, seed=13)
        surface = LikelihoodSurface(model1, quad_var(bundle.x_obs, 1.0))
        theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
        sigma = model1.sigma(theta)
        inv = np.linalg.inv(sigma)
        logdet = np.linalg.slogdet(sigma)[1]
        h = 1.0 / 40
        dx = np.diff(bundle.x_obs, axis=0)
        direct = sum(-0.5 * logdet - (d @ inv @ d) / (2 * h) for d in dx)
        assert abs(surface.value(theta) - direct) < 1e-9 * (1 + abs(direct))

    def test_time_shift_invariance(self, model1, bundle_1e4):
        shifted = bundle_1e4.x_obs + np.arange(1.0, 11.0)
        s0 = LikelihoodSurface(model1, quad_var(bundle_1e4.x_obs, 1.0))
        s1 = LikelihoodSurface(model1, quad_var(shifted, 1.0))
        v0 = s0.value(models.THETA1_TRUE)
        v1 = s1.value(models.THETA1_TRUE)
        assert abs(v0 - v1) < 1e-9 * (1 + abs(v0))

    def test_not_positive_definite_signal(self, model1, quadvar_1e4):
        surface = LikelihoodSurface(model1, quadvar_1e4)
        theta = models.THETA1_TRUE.copy()
        theta[9] = -4.0  # negative factor variance
        with pytest.raises(NotPositiveDefiniteError):
            surface.value(theta)

    def test_shape_mismatch(self, scalar_model, quadvar_1e4):
        with pytest.raises(ValueError):
            LikelihoodSurface(scalar_model, quadvar_1e4)


class TestGradient:
    def test_scalar_closed_form(self, scalar_model):
        q0, n = 2.3, 40
        q = np.diag([q0, 1.0])
        surface = LikelihoodSurface(scalar_model, QuadVar(q, n=n, T=1.0))
        for theta in (0.9, 2.3, 4.0):
            expected = (n / 2) * (q0 / theta ** 2 - 1.0 / theta)
            assert abs(surface.grad([theta])[0] - expected) < 1e-9 * (1 + abs(expected))

    def test_vanishes_when_covariance_matches(self, model1):
        sigma = model1.sigma(models.THETA1_TRUE)
        n = 100
        surface = LikelihoodSurface(model1, QuadVar(sigma, n=n, T=1.0))
        grad = surface.grad(models.THETA1_TRUE)
        assert np.linalg.norm(grad) < 1e-8 * n

    @pytest.mark.parametrize("fixture", ["model1", "model2", "model3"])
    def test_matches_finite_differences(self, fixture, request, quadvar_1e4):
        spec = request.getfixturevalue(fixture)
        surface = LikelihoodSurface(spec, quadvar_1e4)
        rng = np.random.default_rng(17)
        around = {"model1": models.THETA1_TRUE, "model2": models.THETA2_TRUE,
                  "model3": None}[fixture]
        for _ in range(5):
            theta = interior_theta(spec, rng, around=around)
            grad = surface.grad(theta)
            fd = np.empty_like(grad)
            for j in range(spec.q):
                step = 1e-6 * (1 + abs(theta[j]))
                tp, tm = theta.copy(), theta.copy()
                tp[j] += step
                tm[j] -= step
                fd[j] = (surface.value(tp) - surface.value(tm)) / (2 * step)
            scale = 1.0 + np.abs(grad).max()
            assert np.abs(grad - fd).max() / scale < 1e-6


class TestHessian:
    def test_scalar_closed_form(self, scalar_model):
        q0, n = 1.8, 60
        surface = LikelihoodSurface(scalar_model, QuadVar(np.diag([q0, 1.0]),
                                                          n=n, T=1.0))
        hess = surface.hessian(np.array([q0]))
        expected = -(n / 2) / q0 ** 2
        assert abs(hess[0, 0] - expected) < 1e-5 * abs(expected)

    def test_raw_difference_symmetry(self, model1, quadvar_1e4):
        surface = LikelihoodSurface(model1, quadvar_1e4)
        theta = models.THETA1_TRUE
        q = model1.q
        raw = np.empty((q, q))
        for j in range(q):
            step = 1e-5 * (1 + abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += step
            tm[j] -= step
            raw[:, j] = (surface.grad(tp) - surface.grad(tm)) / (2 * step)
        asym = np.abs(raw - raw.T).max() / (1 + np.abs(raw).max())
        assert asym < 1e-6

    def test_scalar_closed_form_at_box_floor(self, scalar_model):
        # a central difference at the variance floor steps below zero; the
        # analytic Hessian is exact there
        q0, n, theta = 2.0, 30, 1e-6
        surface = LikelihoodSurface(scalar_model, QuadVar(np.diag([q0, 1.0]),
                                                          n=n, T=1.0))
        expected = n * (-q0 / theta ** 3 + 1.0 / (2.0 * theta ** 2))
        hess = surface.hessian(np.array([theta]))
        assert abs(hess[0, 0] - expected) < 1e-12 * abs(expected)

    @pytest.mark.parametrize("fixture", ["model1", "model2", "model3",
                                         "structural"])
    def test_matches_finite_differences(self, fixture, request, quadvar_1e4):
        rng = np.random.default_rng(23)
        if fixture == "structural":
            # free b: exercises the inv(I - b) derivative terms
            spec = make_structural_spec()
            around = np.where(spec.positive_mask, 4.0, 1.5)
            chol = np.linalg.cholesky(spec.sigma(around))
            x = (rng.standard_normal((2001, spec.p)) @ chol.T).cumsum(axis=0)
            quadvar = quad_var(x / np.sqrt(2000), 1.0)
        else:
            spec = request.getfixturevalue(fixture)
            around = {"model1": models.THETA1_TRUE,
                      "model2": models.THETA2_TRUE, "model3": None}[fixture]
            quadvar = quadvar_1e4
        surface = LikelihoodSurface(spec, quadvar)
        for _ in range(3):
            theta = interior_theta(spec, rng, around=around)
            hess = surface.hessian(theta)
            fd = fd_hessian(surface, theta)
            assert np.abs(hess - fd).max() < 1e-6 * np.abs(fd).max()


class TestLimitCriterion:
    def test_value_at_truth(self, model1, sigma0_oracle):
        v = limit_loglik(model1, models.THETA1_TRUE, sigma0_oracle)
        expected = -5.0 - 0.5 * np.linalg.slogdet(sigma0_oracle)[1]
        assert abs(v - expected) < 1e-12

    def test_truth_is_maximum(self, model1, sigma0_oracle):
        rng = np.random.default_rng(21)
        v_star = limit_loglik(model1, models.THETA1_TRUE, sigma0_oracle)
        for _ in range(10):
            theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
            assert limit_loglik(model1, theta, sigma0_oracle) <= v_star + 1e-12

    def test_scaled_likelihood_converges_uniformly(self, model1, bundle_1e5,
                                                   quadvar_1e5, sigma0_oracle):
        surface = LikelihoodSurface(model1, quadvar_1e5)
        rng = np.random.default_rng(30)
        for _ in range(20):
            theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
            scaled = surface.value(theta) / surface.n
            assert abs(scaled - limit_loglik(model1, theta, sigma0_oracle)) < 0.02
