import numpy as np
import pytest

from hfsem import diffsim, matkit, models, qlik
from hfsem.errors import NotPositiveDefiniteError, SingularStructureError
from hfsem.qlik import (LikelihoodSurface, QuadVar, fisher_information,
                        quad_var, score_lanes)
from tests.conftest import (edited_spec, fd_hessian, interior_theta,
                            make_structural_spec)


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

    def test_no_columns_rejected(self):
        # a CSV that holds only the time column reads as an (n+1) x 0 path
        with pytest.raises(ValueError, match="no observed columns"):
            quad_var(np.empty((3, 0)), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_path_rejected(self, bad):
        x = np.random.default_rng(0).standard_normal((20, 3)).cumsum(axis=0)
        x[7, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quad_var(x, 1.0)

    @pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_horizon_rejected(self, T):
        x = np.random.default_rng(0).standard_normal((20, 3)).cumsum(axis=0)
        with pytest.raises(ValueError, match="horizon"):
            quad_var(x, T)

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


class TestScore:
    @pytest.mark.parametrize("fixture", ["model1", "model2", "model3",
                                         "structural"])
    def test_equals_value_grad_and_information(self, fixture, request,
                                               quadvar_1e4):
        # one pass gives exactly what the separate evaluations give
        rng = np.random.default_rng(29)
        if fixture == "structural":
            spec = make_structural_spec()
            around = np.where(spec.positive_mask, 4.0, 1.5)
            x = rng.standard_normal((501, spec.p)).cumsum(axis=0)
            quadvar = quad_var(x / np.sqrt(500), 1.0)
        else:
            spec = request.getfixturevalue(fixture)
            around = {"model1": models.THETA1_TRUE,
                      "model2": models.THETA2_TRUE, "model3": None}[fixture]
            quadvar = quadvar_1e4
        surface = LikelihoodSurface(spec, quadvar)
        for _ in range(3):
            theta = interior_theta(spec, rng, around=around)
            value, grad, info = surface.score(theta)
            sigma, d1 = spec.forward(theta, 1)
            expected = quadvar.n * fisher_information(
                d1, matkit.chol_logdet(sigma)[1])
            v, g = surface.value_and_grad(theta)
            assert value == v
            assert np.array_equal(grad, g)
            assert np.array_equal(info, expected)


class TestLanes:
    """``score_lanes`` evaluates a stack of lanes in one pass; a lane's
    results must not depend on the others, and a lane outside the region
    must be rejected alone."""

    @staticmethod
    def two_way_b():
        # The structural spec with b[0][1] freed as well (parameter 18), so
        # that I - B = [[1, -b01], [-b10, 1]] is singular at b01 b10 = 1.
        spec = make_structural_spec()
        return edited_spec(spec, {("b", 0, 1): {"free": {"index": 18}}},
                           "structural_b2")

    def stack(self, spec, rng, lanes):
        around = np.where(spec.positive_mask, 4.0, 0.3)
        theta = np.array([interior_theta(spec, rng, around=around)
                          for _ in range(lanes)])
        q_xx = np.array([spec.sigma(t) * rng.uniform(0.8, 1.2) for t in theta])
        n = rng.integers(50, 5000, size=lanes).astype(float)
        return theta, q_xx, n

    def assert_lane_alone(self, spec, theta, q_xx, n, order, full, lane):
        alone = score_lanes(spec, theta[lane:lane + 1], q_xx[lane:lane + 1],
                            n[lane:lane + 1], order)
        assert alone.value[0] == full.value[lane]
        for field in ("grad", "hessian")[:order]:
            assert np.array_equal(getattr(alone, field)[0],
                                  getattr(full, field)[lane])
        if order:
            assert np.array_equal(alone.information([0])[0],
                                  full.information([lane])[0])

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_lanes_independent(self, model2, order):
        rng = np.random.default_rng(31)
        theta, q_xx, n = self.stack(model2, rng, 9)
        full = score_lanes(model2, theta, q_xx, n, order)
        assert full.ok.all()
        for lane in (0, 4, 8):
            self.assert_lane_alone(model2, theta, q_xx, n, order, full, lane)
        part = score_lanes(model2, theta[2:7], q_xx[2:7], n[2:7], order)
        assert np.array_equal(part.value, full.value[2:7])

    def test_surface_is_one_lane(self, model1, quadvar_1e4):
        surface = LikelihoodSurface(model1, quadvar_1e4)
        theta = models.THETA1_TRUE
        lane = score_lanes(model1, theta[None], quadvar_1e4.q_xx[None],
                           [quadvar_1e4.n], 2)
        value, grad, info = surface.score(theta)
        assert value == surface.value(theta) == lane.value[0]
        assert np.array_equal(grad, lane.grad[0])
        assert np.array_equal(info, lane.information([0])[0])
        assert np.array_equal(surface.hessian(theta), lane.hessian[0])

    @pytest.mark.filterwarnings("error")
    def test_singular_structure_rejected_alone(self):
        spec = self.two_way_b()
        rng = np.random.default_rng(8)
        theta, q_xx, n = self.stack(spec, rng, 3)
        theta[1, 4], theta[1, 18] = 2.0, 0.5
        full = score_lanes(spec, theta, q_xx, n, 2)
        assert list(full.status) == [qlik.OK, qlik.SINGULAR, qlik.OK]
        assert full.value[1] == -np.inf
        for lane in (0, 2):
            self.assert_lane_alone(spec, theta, q_xx, n, 2, full, lane)
        surface = LikelihoodSurface(spec, QuadVar(q_xx[1], n=int(n[1]), T=1.0))
        with pytest.raises(SingularStructureError):
            surface.value(theta[1])

    @pytest.mark.filterwarnings("error")
    def test_indefinite_sigma_rejected_alone(self):
        # parameter 9 is the free off-diagonal sigma_dd[0, 1] cell
        spec = make_structural_spec()
        rng = np.random.default_rng(9)
        theta, q_xx, n = self.stack(spec, rng, 3)
        theta[2, 9] = 500.0
        full = score_lanes(spec, theta, q_xx, n, 1)
        assert list(full.status) == [qlik.OK, qlik.OK,
                                     qlik.NOT_POSITIVE_DEFINITE]
        assert full.value[2] == -np.inf
        for lane in (0, 1):
            self.assert_lane_alone(spec, theta, q_xx, n, 1, full, lane)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_lane_rejected_alone(self, model1):
        rng = np.random.default_rng(10)
        theta, q_xx, n = self.stack(model1, rng, 3)
        theta[0, 3] = np.inf
        q_xx[1, 0, 0] = 1e308
        full = score_lanes(model1, theta, q_xx, n, 1)
        assert list(full.status) == [qlik.NON_FINITE, qlik.NON_FINITE, qlik.OK]
        self.assert_lane_alone(model1, theta, q_xx, n, 1, full, 2)


def limit_value(spec, theta, sigma0):
    """The in-fill limit criterion: the n=1, T=1 surface with ``sigma0`` as
    the realized covariation, as ``qmle.limit_optimum`` maximizes it."""
    return LikelihoodSurface(spec, QuadVar(sigma0, n=1, T=1.0)).value(theta)


class TestLimitCriterion:
    def test_value_at_truth(self, model1, sigma0_oracle):
        v = limit_value(model1, models.THETA1_TRUE, sigma0_oracle)
        expected = -5.0 - 0.5 * np.linalg.slogdet(sigma0_oracle)[1]
        assert abs(v - expected) < 1e-12

    def test_truth_is_maximum(self, model1, sigma0_oracle):
        rng = np.random.default_rng(21)
        v_star = limit_value(model1, models.THETA1_TRUE, sigma0_oracle)
        for _ in range(10):
            theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
            assert limit_value(model1, theta, sigma0_oracle) <= v_star + 1e-12

    def test_scaled_likelihood_converges_uniformly(self, model1, bundle_1e5,
                                                   quadvar_1e5, sigma0_oracle):
        surface = LikelihoodSurface(model1, quadvar_1e5)
        rng = np.random.default_rng(30)
        for _ in range(20):
            theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
            scaled = surface.value(theta) / surface.n
            assert abs(scaled - limit_value(model1, theta, sigma0_oracle)) < 0.02
