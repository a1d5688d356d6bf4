import re

import numpy as np
import pytest

from hfsem import diffsim, harness, matkit, models, qlik, qmle, semspec
from hfsem.errors import NotPositiveDefiniteError, SingularStructureError
from hfsem.qlik import LikelihoodSurface, QuadVar, quad_var, score_lanes
from tests.conftest import (all_specs, edited_spec, fd_hessian,
                            interior_theta, make_structural_spec,
                            stacked_d1, stacked_hessian, stacked_information,
                            whole_path_quad_var)


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

    @pytest.mark.parametrize("n", [0, 1000.5, True], ids=repr)
    def test_bad_increment_count_rejected(self, n):
        # n = 0 would fit to a report whose criteria divide by zero, and a
        # fraction to one that FitReport.from_dict rejects.
        with pytest.raises(ValueError, match="^n must be an integer of at least 1"):
            QuadVar(np.eye(2), n=n, T=1.0)

    @pytest.mark.parametrize("q_xx, message", [
        ([[1.0, np.nan], [np.nan, 1.0]], "non-finite"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "square"),
        ([[1.0, 0.5], [0.4, 1.0]], "not symmetric")],
        ids=["non_finite", "non_square", "asymmetric"])
    def test_bad_covariation_rejected(self, q_xx, message):
        with pytest.raises(ValueError, match=message):
            QuadVar(np.array(q_xx), n=10, T=1.0)

    def test_covariation_stored_symmetrized(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(QuadVar(q, n=10, T=1.0).q_xx, q)
        nudged = q + np.array([[0.0, 1e-12], [0.0, 0.0]])
        stored = QuadVar(nudged, n=10, T=1.0).q_xx
        assert np.array_equal(stored, stored.T)
        assert np.array_equal(stored, 0.5 * (nudged + nudged.T))


class TestBlockedGram:
    """``quad_var`` sums the increment Gram in blocks of ``_GRAM_BLOCK``
    increments; the whole-path product is the reference."""

    BLOCK = 8

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK,
                                   2 * BLOCK + 1, 3 * BLOCK + 17])
    def test_matches_whole_path(self, n, monkeypatch):
        monkeypatch.setattr(qlik, "_GRAM_BLOCK", self.BLOCK)
        x = np.random.default_rng(n).standard_normal((n + 1, 4)).cumsum(axis=0)
        got, want = quad_var(x, 2.0), whole_path_quad_var(x, 2.0)
        assert (got.n, got.T) == (want.n, want.T) == (n, 2.0)
        if n <= self.BLOCK:
            assert np.array_equal(got.q_xx, want.q_xx)
        else:
            scale = np.abs(want.q_xx).max()
            assert np.abs(got.q_xx - want.q_xx).max() <= 1e-13 * scale

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("row", [BLOCK, 2 * BLOCK])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_boundary_row_rejected(self, row, bad, monkeypatch):
        # the row ends one block and starts the next
        monkeypatch.setattr(qlik, "_GRAM_BLOCK", self.BLOCK)
        x = np.random.default_rng(0).standard_normal((3 * self.BLOCK, 3))
        x[row, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            quad_var(x, 1.0)

    def test_long_path_matches_whole_path(self, bundle_1e5, quadvar_1e5):
        # n = 1e5 spans two blocks of the package's own size
        assert bundle_1e5.n > qlik._GRAM_BLOCK
        want = whole_path_quad_var(bundle_1e5.x_obs, bundle_1e5.T).q_xx
        assert (np.abs(quadvar_1e5.q_xx - want).max()
                <= 1e-13 * np.abs(want).max())

    def test_one_block_held_at_a_time(self):
        # the increments go through one reused block-sized buffer
        import tracemalloc

        x = np.random.default_rng(1).standard_normal((400_001, 10))
        tracemalloc.start()
        try:
            quad_var(x, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < qlik._GRAM_BLOCK * x.shape[1] * x.itemsize + 64 * 1024


# Every entry point that takes a horizon T, called with it.
HORIZON_ENTRIES = {
    "quad_var": lambda T: quad_var(np.arange(6.0).reshape(3, 2), T),
    "QuadVar": lambda T: QuadVar(np.eye(2), n=10, T=T),
    "simulate_custom": lambda T: diffsim.simulate_custom(
        diffsim.load_truth(diffsim.TRUE_MODEL_NAME), n=10, T=T, seed=0),
    "simulate_true_model": lambda T: diffsim.simulate_true_model(10, T, seed=0),
    # Named for the method that once checked T; the config checks it when built.
    "ExperimentConfig.validate": lambda T: harness.ExperimentConfig(
        n_values=[100], T=T, replications=1, master_seed=0,
        model_spec_paths=["model1"]),
}


@pytest.mark.parametrize("entry", HORIZON_ENTRIES)
@pytest.mark.parametrize("T", [np.nan, np.inf, 0, -1, True, "1"], ids=repr)
def test_one_horizon_rule(entry, T):
    # A bool or a string is no horizon, though a bare comparison takes True
    # as 1.0; every entry point fails with the one message.
    message = f"T must be a positive finite horizon, got {T!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HORIZON_ENTRIES[entry](T)


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

    def test_non_finite_value_signal(self, model1, quadvar_1e4):
        # A loading of 1e200 overflows Sigma: the kernel rejects the lane
        # as non-finite, and the surface names that reason.
        surface = LikelihoodSurface(model1, quadvar_1e4)
        theta = models.THETA1_TRUE.copy()
        theta[0] = 1e200
        with pytest.raises(NotPositiveDefiniteError,
                           match="^the likelihood is not finite at theta$"):
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

    def test_non_finite_hessian_raises(self, scalar_model):
        # Below the box, at a variance of 1e-110, the value and the
        # gradient are finite but the Hessian, of order n q0 / theta^3,
        # overflows.
        surface = LikelihoodSurface(scalar_model, QuadVar(np.diag([2.0, 1.0]),
                                                          n=30, T=1.0))
        value, grad = surface.value_and_grad(np.array([1e-110]))
        assert np.isfinite(value) and np.isfinite(grad).all()
        with pytest.raises(NotPositiveDefiniteError,
                           match="^the likelihood is not finite at theta$"):
            surface.hessian(np.array([1e-110]))

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


    @pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.name)
    def test_matches_stacked_oracle(self, spec):
        # The factor-space contraction against the stacked (q, q, p, p)
        # kernel it replaced, at random interior points, free b included.
        rng = np.random.default_rng(41)
        around = np.where(spec.positive_mask, 4.0, 0.7)
        for spread in (0.3, 0.6, 0.9):
            theta = interior_theta(spec, rng, spread=spread, around=around)
            q_xx = spec.sigma(interior_theta(spec, rng, around=around))
            surface = LikelihoodSurface(spec, QuadVar(q_xx, n=1000, T=1.0))
            expected = stacked_hessian(surface, theta)
            scale = np.abs(expected).max()
            assert np.abs(surface.hessian(theta) - expected).max() <= 1e-10 * scale

    def test_oracle_matches_finite_differences(self):
        # The oracle itself, on the free-b spec.
        spec = make_structural_spec()
        rng = np.random.default_rng(43)
        around = np.where(spec.positive_mask, 4.0, 0.7)
        theta = interior_theta(spec, rng, around=around)
        surface = LikelihoodSurface(spec, QuadVar(
            spec.sigma(interior_theta(spec, rng, around=around)), n=500, T=1.0))
        fd = fd_hessian(surface, theta)
        assert (np.abs(stacked_hessian(surface, theta) - fd).max()
                < 1e-6 * np.abs(fd).max())


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
            lane = score_lanes(spec, theta[None], quadvar.q_xx[None],
                               [quadvar.n])
            value, grad = lane.value[0], lane.grad[0]
            info = lane.information([0])[0]
            sigma, record = spec.forward(theta, 1)
            inv = matkit.chol_logdet(sigma)[1]
            alone = 0.5 * quadvar.n * record.trace_products([0], inv, inv)[0]
            expected = quadvar.n * stacked_information(spec, theta, inv)
            v, g = surface.value_and_grad(theta)
            assert value == v
            assert np.array_equal(grad, g)
            assert np.array_equal(info, 0.5 * (alone + alone.T))
            assert np.abs(info - expected).max() <= 1e-10 * np.abs(expected).max()


class TestFirstOrder:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.name)
    def test_matches_stacked_oracle(self, spec):
        # The factor record's gradient, information and Jacobian, and the
        # probe's gradient and Gauss-Newton matrix, against the product-rule
        # (q, p, p) stack of stacked_d1: one lane per spread in one pass,
        # so a free b goes through _psi_inverse on the stack.
        rng = np.random.default_rng(47)
        around = np.where(spec.positive_mask, 4.0, 0.7)
        theta = np.array([interior_theta(spec, rng, spread=spread, around=around)
                          for spread in (0.3, 0.6, 0.9)])
        q_xx = np.array([spec.sigma(interior_theta(spec, rng, around=around))
                         for _ in theta])
        n = np.array([100.0, 1000.0, 10000.0])
        scores = score_lanes(spec, theta, q_xx, n)
        probe = qmle._distance_scores(spec, theta, q_xx[0])
        jacobian = spec.forward(theta, 1)[1].jacobian(slice(None))
        assert scores.ok.all() and probe.ok.all()
        rows, cols = matkit.vech_indices(spec.p)
        for lane, point in enumerate(theta):
            d1 = stacked_d1(spec, point)
            sigma = spec.sigma(point)
            inv = np.linalg.inv(sigma)
            m = inv @ q_xx[lane] @ inv - inv
            pairs = {
                "gradient": (scores.grad[lane],
                             0.5 * n[lane] * np.einsum("iab,ab->i", d1, m)),
                "information": (scores.information([lane])[0],
                                n[lane] * stacked_information(spec, point, inv)),
                "jacobian": (jacobian[lane], d1[:, rows, cols].T),
                "probe gradient": (probe.grad[lane], -np.einsum(
                    "iab,ab->i", d1, sigma - q_xx[0])),
                "gauss-newton": (probe.information([lane])[0],
                                 np.einsum("iab,jab->ij", d1, d1)),
            }
            for name, (got, expected) in pairs.items():
                scale = np.abs(expected).max()
                assert np.abs(got - expected).max() <= 1e-10 * scale, name


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
        # Up to ``order``: the value, the gradient and information, and the
        # Hessian, which an order-1 pass gives for the lanes asked; the
        # full pass's Hessians are asked for all its admissible lanes at once.
        alone = score_lanes(spec, theta[lane:lane + 1], q_xx[lane:lane + 1],
                            n[lane:lane + 1], min(order, 1))
        assert alone.value[0] == full.value[lane]
        if order:
            assert np.array_equal(alone.grad[0], full.grad[lane])
            assert np.array_equal(alone.information([0])[0],
                                  full.information([lane])[0])
        if order == 2:
            lanes = np.flatnonzero(full.ok)
            assert np.array_equal(alone.hessian([0])[0],
                                  full.hessian(lanes)[lanes == lane][0])

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_lanes_independent(self, model2, order):
        rng = np.random.default_rng(31)
        theta, q_xx, n = self.stack(model2, rng, 9)
        full = score_lanes(model2, theta, q_xx, n, min(order, 1))
        assert full.ok.all()
        for lane in (0, 4, 8):
            self.assert_lane_alone(model2, theta, q_xx, n, order, full, lane)
        part = score_lanes(model2, theta[2:7], q_xx[2:7], n[2:7], min(order, 1))
        assert np.array_equal(part.value, full.value[2:7])

    def test_surface_is_one_lane(self, model1, quadvar_1e4):
        surface = LikelihoodSurface(model1, quadvar_1e4)
        theta = models.THETA1_TRUE
        lane = score_lanes(model1, theta[None], quadvar_1e4.q_xx[None],
                           [quadvar_1e4.n])
        value, grad = surface.value_and_grad(theta)
        assert value == surface.value(theta) == lane.value[0]
        assert np.array_equal(grad, lane.grad[0])
        assert np.array_equal(surface.hessian(theta), lane.hessian([0])[0])

    @pytest.mark.filterwarnings("error")
    def test_singular_structure_rejected_alone(self):
        spec = self.two_way_b()
        rng = np.random.default_rng(8)
        theta, q_xx, n = self.stack(spec, rng, 3)
        theta[1, 4], theta[1, 18] = 2.0, 0.5
        full = score_lanes(spec, theta, q_xx, n)
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

    def test_lane_blocks_match_lanes_alone(self, model2):
        # trace_products contracts _LANE_BLOCK lanes at a time; 37 lanes
        # end in a part block, and a permuted order mixes the blocks.
        # The stack's trace products, information and Hessians are those
        # of each lane asked alone.
        assert 37 % semspec._LANE_BLOCK
        rng = np.random.default_rng(37)
        theta, q_xx, n = self.stack(model2, rng, 37)
        full = score_lanes(model2, theta, q_xx, n)
        assert full.ok.all()
        sigma, record = model2.forward(theta, 1)
        s = np.linalg.inv(sigma)
        s = 0.5 * (s + s.swapaxes(1, 2))
        t = s - q_xx
        order = rng.permutation(37)
        products = {"t is s": record.trace_products(order, s[order], s[order]),
                    "t": record.trace_products(order, s[order], t[order])}
        information, hessian = full.information(order), full.hessian(order)
        for place, lane in enumerate(order):
            one = slice(lane, lane + 1)
            alone = model2.forward(theta[one], 1)[1]
            assert np.array_equal(products["t is s"][place],
                                  alone.trace_products([0], s[one], s[one])[0])
            assert np.array_equal(products["t"][place],
                                  alone.trace_products([0], s[one], t[one])[0])
            scores = score_lanes(model2, theta[one], q_xx[one], n[one])
            assert np.array_equal(information[place], scores.information([0])[0])
            assert np.array_equal(hessian[place], scores.hessian([0])[0])

    def test_lane_blocks_bound_memory(self, model2):
        # The gathers of trace_products, 4 q^2 doubles a lane, are made one
        # block at a time: 128 lanes take the result plus a few blocks'
        # worth, where one whole-stack contraction takes about 24.
        import tracemalloc

        rng = np.random.default_rng(5)
        theta = self.stack(model2, rng, 128)[0]
        sigma, record = model2.forward(theta, 1)
        s = np.linalg.inv(sigma)
        t = s - 0.1 * np.eye(model2.p)
        block = semspec._LANE_BLOCK * 4 * model2.q ** 2 * 8
        tracemalloc.start()
        try:
            out = record.trace_products(slice(None), s, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 4 * block

    def test_hessian_accumulates_in_place(self, model1):
        # The information and the Hessian of 128 lanes sum, scale and
        # symmetrize one (L, q, q) stack in place, and a Hessian drops its
        # inputs before the second-order term: traced peaks 1.08 and
        # 1.36 MiB for a 0.47 MiB result, against 1.32 and 1.55 MiB when
        # each step made a new stack.  The values are those of the
        # whole-stack expressions, bit for bit.
        import tracemalloc

        rng = np.random.default_rng(5)
        lanes = np.arange(128)
        theta, q_xx, n = self.stack(model1, rng, len(lanes))
        scores = score_lanes(model1, theta, q_xx, n)
        assert scores.ok.all()
        peaks = {}
        for name, bound in (("information", 1.2), ("hessian", 1.45)):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                out = getattr(scores, name)(lanes)
                peaks[name] = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peaks[name] < bound * 2**20, (name, peaks[name])
        sigma, record, second = model1.forward(theta, 2)
        inv = matkit._chol_lanes(sigma)[1]
        r = inv @ q_xx @ inv
        scale = 0.5 * n[:, None, None]
        for name, term in (
                ("information", scale * record.trace_products(lanes, inv, inv)),
                ("hessian", scale * (record.trace_products(lanes, inv, inv - 2.0 * r)
                                     + second(lanes, r - inv)))):
            want = 0.5 * (term + term.swapaxes(1, 2))
            assert np.array_equal(getattr(scores, name)(lanes), want)


def limit_value(spec, theta, sigma0):
    """The in-fill limit criterion: the n=1, T=1 surface with ``sigma0`` as
    the realized covariation, as ``qmle.limit_optimum`` maximizes it."""
    return LikelihoodSurface(spec, QuadVar(sigma0, n=1, T=1.0)).value(theta)


class TestSaturated:
    def test_stack_is_each_task_by_itself(self):
        # One slogdet over a 128-stack, bit for bit each Q's own.
        rng = np.random.default_rng(12)
        a = rng.standard_normal((128, 10, 14))
        q_xx = a @ np.swapaxes(a, 1, 2) / 14
        n = rng.integers(10, 10**6, size=128)
        expected = [k * (-len(q) - np.linalg.slogdet(q)[1]) / 2
                    for k, q in zip(n, q_xx)]
        assert np.array_equal(qlik.saturated_loglik(q_xx, n), expected)

    def test_is_the_likelihood_at_sigma_q(self, scalar_model):
        # Sigma(theta) = Q at theta = q0 for the scalar model.
        q_xx, n = np.diag([1.7, 1.0]), 40
        surface = LikelihoodSurface(scalar_model, QuadVar(q_xx, n=n, T=1.0))
        saturated = qlik.saturated_loglik(q_xx[None], np.array([n]))
        assert saturated[0] == pytest.approx(surface.value([1.7]), rel=1e-14)


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
