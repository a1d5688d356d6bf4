import collections
import math

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import lapack

from hfsem import diffsim, models, qlik, qmle
from hfsem.errors import (AllStartsFailedError, NotPositiveDefiniteError,
                          SingularStructureError, SpecError)
from hfsem.qlik import LikelihoodSurface, QuadVar, quad_var
from hfsem.semspec import SemSpec
from tests.conftest import (edited_spec, interior_theta, make_structural_spec,
                            per_lane_scoring_step)


@pytest.fixture(scope="module")
def surface_1e3(model1):
    bundle = diffsim.simulate_true_model(1000, 1.0, seed=314)
    return LikelihoodSurface(model1, quad_var(bundle.x_obs, 1.0))


def one_lane(surface, init, **kwargs):
    """``qmle._optimize`` on one lane: ``surface`` from ``init``."""
    spec, q_xx, n = surface.spec, surface.quadvar.q_xx[None], float(surface.n)
    return qmle._optimize(spec, lambda theta, at: qmle.score_lanes(
        spec, theta, q_xx, np.array([n])), np.asarray(init, dtype=float)[None],
        **kwargs)


def reports_equal(a, b):
    return (np.array_equal(a.theta_hat, b.theta_hat)
            and a.h_at_hat == b.h_at_hat
            and a.iterations == b.iterations
            and a.evaluations == b.evaluations
            and np.array_equal(a.hessian, b.hessian, equal_nan=True)
            and a.j_flag == b.j_flag
            and a.converged == b.converged
            and a.boundary_hit == b.boundary_hit)


class TestFit:
    def test_scalar_closed_form_maximizer(self, scalar_model):
        q0 = 3.7
        surface = LikelihoodSurface(scalar_model, QuadVar(np.diag([q0, 1.2]),
                                                          n=200, T=1.0))
        report = qmle.fit(surface, init=np.array([1.0]))
        assert abs(report.theta_hat[0] - q0) < 1e-8
        assert report.converged and not report.boundary_hit

    def test_recovers_truth_approximately(self, surface_1e3):
        # loose sanity bound; the convergence-rate study lives in the
        # acceptance suite
        report = qmle.fit(surface_1e3, init=models.THETA1_TRUE)
        assert report.converged
        assert np.abs(report.theta_hat - models.THETA1_TRUE).max() < 3.0
        assert report.j_flag
        assert np.array_equal(report.gamma_tilde, -report.hessian / 1000)

    def test_convergence_criterion_scales_with_value(self, surface_1e3):
        report = qmle.fit(surface_1e3, init=models.THETA1_TRUE)
        assert report.grad_norm < 1e-6 * (1 + abs(report.h_at_hat))

    def test_determinism(self, surface_1e3):
        a = qmle.fit(surface_1e3, init=models.THETA1_TRUE)
        b = qmle.fit(surface_1e3, init=models.THETA1_TRUE)
        assert reports_equal(a, b)

    def test_monotone_accepted_iterates(self, surface_1e3, model1):
        values = []
        hook = lambda lane, theta: values.append(surface_1e3.value(theta))
        one_lane(surface_1e3,
                 qmle.moment_start(model1, surface_1e3.quadvar.q_xx),
                 iterate_hook=hook)
        values = np.array(values)
        assert len(values) > 5
        assert np.all(np.diff(values) >= -1e-9 * (1 + np.abs(values[:-1])))

    def test_default_init_is_moment_start(self, surface_1e3, model1):
        auto = qmle.fit(surface_1e3)
        explicit = qmle.fit(surface_1e3,
                            init=qmle.moment_start(model1, surface_1e3.quadvar.q_xx))
        assert reports_equal(auto, explicit)

    def test_matches_lbfgsb_reference(self, surface_1e3, model1):
        # scipy's L-BFGS-B on the raw box, run until its line search
        # stalls, is an independent reference maximizer
        report = qmle.fit(surface_1e3, init=models.THETA1_TRUE)

        def negobj(theta):
            v, g = surface_1e3.value_and_grad(theta)
            return -v, -g

        raw = scipy.optimize.minimize(
            negobj, models.THETA1_TRUE, jac=True, method="L-BFGS-B",
            bounds=list(zip(model1.lower, model1.upper)),
            options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-13, "maxcor": 30})
        # both stop inside the same numerical optimum; agreement is limited
        # by the softest curvature direction, not by the method
        assert np.abs(report.theta_hat - raw.x).max() < 1e-4
        assert abs(report.h_at_hat + raw.fun) < 1e-8 * (1 + abs(raw.fun))

    def test_value_and_grad_calls(self, surface_1e3, monkeypatch):
        # The L-BFGS-B estimator that scoring replaced (log-scaled variances,
        # run until its line search stalled) made 87 value_and_grad calls
        # for this fit, the Hessian left out.  Scoring evaluates through
        # the lane kernel, one lane per trial, and reports the count.
        lanes = []
        original = qmle.score_lanes
        monkeypatch.setattr(qmle, "score_lanes",
                            lambda spec, theta, *args: lanes.append(len(theta))
                            or original(spec, theta, *args))
        report = qmle.fit(surface_1e3, init=models.THETA1_TRUE,
                          options=qmle.FitOptions(compute_hessian=False))
        assert 0 < sum(lanes) == report.evaluations <= 87 // 3

    def test_one_forward_pass_per_evaluation(self, surface_1e3, monkeypatch):
        # One forward pass per kernel pass, the Hessian's one order-2 pass
        # included; a central-difference Hessian of this model makes
        # 2q = 44 gradient calls, 88 Sigma/Jacobian builds.
        calls = collections.Counter()

        def count(owner, name, key=lambda *args, **kwargs: ""):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.update(
                [name + key(*args, **kwargs)]) or original(*args, **kwargs))

        count(qmle, "score_lanes",
              lambda spec, theta, q_xx, n, order=1: f" order {order}")
        count(LikelihoodSurface, "hessian")
        count(SemSpec, "forward")
        report = qmle.fit(surface_1e3, init=models.THETA1_TRUE)
        assert calls["hessian"] == 0
        assert calls["score_lanes order 2"] == 1
        assert calls["score_lanes order 1"] > 0
        assert calls["forward"] == (calls["score_lanes order 1"]
                                    + calls["score_lanes order 2"])
        before = calls["forward"]
        assert np.array_equal(surface_1e3.hessian(report.theta_hat),
                              report.hessian)
        assert calls["forward"] - before == 1

    def test_boundary_solution_reported(self, scalar_model):
        # quadratic covariation below the variance floor pushes the
        # maximizer onto the box
        surface = LikelihoodSurface(scalar_model, QuadVar(np.diag([1e-9, 1.0]),
                                                          n=50, T=1.0))
        report = qmle.fit(surface, init=np.array([1.0]))
        assert report.boundary_hit
        assert report.converged
        assert abs(report.theta_hat[0] - scalar_model.lower[0]) < 1e-12

    def test_singular_information_falls_back_to_lstsq(self, degenerate_model,
                                                      monkeypatch):
        # Two free parameters share one Jacobian column, so every scoring
        # system is singular and the step comes from least squares.  The all-least-squares estimator reached
        # -1273.0702524547814 on these data; theta may move along the flat
        # direction, the value may not.
        spec = degenerate_model
        rng = np.random.default_rng(0)
        chol = np.linalg.cholesky(spec.sigma(np.array([2.0] + [1.0] * 6)))
        x = (rng.standard_normal((400, spec.p)) @ chol.T).cumsum(axis=0)
        surface = LikelihoodSurface(spec, quad_var(x / np.sqrt(399), 1.0))
        solves = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: solves.append(1) or lstsq(*a, **k))
        report = qmle.fit(surface, init=np.array([1.5, 2.0, 0.5, 2.0, 1.5,
                                                  0.8, 0.7]))
        assert solves
        assert report.converged
        assert abs(report.h_at_hat / -1273.0702524547814 - 1.0) < 1e-10

    def test_scoring_step_solves_by_cholesky(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((6, 6))
        info, grad = b @ b.T + np.eye(6), rng.standard_normal(6)
        step = qmle._scoring_step(info[None], grad[None],
                                  np.ones((1, 6), dtype=bool))[0]
        assert np.abs(info @ step - grad).max() < 1e-12
        # frozen coordinates do not move; the free block is solved alone
        free = np.array([True, False, True, True, False, True])
        step = qmle._scoring_step(info[None], grad[None], free[None])[0]
        assert np.all(step[~free] == 0.0)
        block = info[np.ix_(free, free)]
        assert np.abs(block @ step[free] - grad[free]).max() < 1e-12
        # with every coordinate frozen the step is zero
        frozen = qmle._scoring_step(info[None], grad[None],
                                    np.zeros((1, 6), dtype=bool))
        assert np.array_equal(frozen, np.zeros((1, 6)))

    def test_scoring_step_drops_numerically_null_directions(self):
        # Cholesky factors this block, but it is singular to working
        # precision: the step must be least squares' (no move along the
        # null direction), not a 1e20-sized one
        info = np.diag([2.0, 1.0, 3.0, 1e-20])
        grad = np.ones(4)
        step = qmle._scoring_step(info[None], grad[None],
                                  np.ones((1, 4), dtype=bool))[0]
        assert np.array_equal(step, np.linalg.lstsq(info, grad, rcond=None)[0])
        assert step[3] == 0.0

    def test_scoring_step_matches_per_lane_reference(self, monkeypatch):
        # Lanes whose free block is whole, partial, empty, singular to
        # working precision (whole and partial) and not positive definite:
        # the stacked 1-norms and the ungathered whole-block solve give
        # the per-lane code's steps bit for bit.
        rng = np.random.default_rng(11)
        q = 7
        b = rng.standard_normal((6, q, q))
        info = b @ np.swapaxes(b, 1, 2) + np.eye(q)
        info = 0.5 * (info + np.swapaxes(info, 1, 2))
        info[3] = np.diag([2.0, 1.0, 3.0, 1e-20, 5.0, 1.0, 4.0])
        info[4] = info[3]
        info[5, 0, 0] = -1.0
        grad = rng.standard_normal((6, q))
        free = np.ones((6, q), dtype=bool)
        free[1] = [True, False, True, True, False, True, True]
        free[2] = False
        free[4, 0] = False
        solves, norms = [], []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: solves.append(1) or lstsq(*a, **k))
        dpocon = lapack.dpocon
        monkeypatch.setattr(lapack, "dpocon", lambda c, anorm, **k:
                            norms.append(anorm) or dpocon(c, anorm, **k))
        step = qmle._scoring_step(info, grad, free)
        assert len(solves) == 4       # the empty, singular and indefinite lanes
        ours, norms[:] = list(norms), []
        assert np.array_equal(step, per_lane_scoring_step(info, grad, free))
        assert ours == norms          # the 1-norms, bit for bit
        assert np.abs(info[0] @ step[0] - grad[0]).max() < 1e-12
        assert np.array_equal(step[2], np.zeros(q))
        assert step[3, 3] == 0.0 and step[4, 3] == 0.0

    @pytest.mark.parametrize("length", [1, 21, 23])
    def test_init_of_wrong_length_rejected(self, surface_1e3, length):
        with pytest.raises(SpecError, match="length q=22"):
            qmle.fit(surface_1e3, init=np.full(length, 2.0))
        with pytest.raises(SpecError, match="length q=22"):
            qmle.fit_multistart(surface_1e3, starts=2, init=np.full(length, 2.0))

    def test_report_dict_fields_checked(self, surface_1e3):
        doc = qmle.fit(surface_1e3, init=models.THETA1_TRUE).to_dict()
        del doc["hessian"]
        report = qmle.FitReport.from_dict(doc)
        assert report.h_at_hat == doc["h_at_hat"]
        assert np.all(np.isnan(report.hessian))
        del doc["q"], doc["n"]
        with pytest.raises(ValueError, match=r"missing fields \['n', 'q'\]"):
            qmle.FitReport.from_dict(doc)

    @pytest.mark.parametrize("key, bad", [
        ("q", None),
        ("theta_hat", "not numbers"),
        ("theta_hat", ["a"] * 22),
        ("hessian", [[1.0, 2.0], [3.0]]),
        ("iterations", "many"),
        ("j_flag", "false"),
        ("converged", 1),
        ("boundary_hit", None),
        ("n", 1000.5),
        ("restarts", True),
        ("h_at_hat", "-3649.5"),
        ("grad_norm", True),
        ("theta_hat", ["3.0"] * 22),
        ("gamma_tilde", [[True] * 22] * 22),
        ("model", 5),
        ("evaluations", 12.5),
    ], ids=["q-null", "theta-text", "theta-strings", "hessian-ragged",
            "iterations-text", "j_flag-text", "converged-int",
            "boundary_hit-null", "n-float", "restarts-bool", "h_at_hat-text",
            "grad_norm-bool", "theta-numeric-strings", "gamma_tilde-bools",
            "model-number", "evaluations-float"])
    def test_report_dict_types_checked(self, surface_1e3, key, bad):
        doc = qmle.fit(surface_1e3, init=models.THETA1_TRUE).to_dict()
        doc[key] = bad
        with pytest.raises(ValueError, match=f"field '{key}'"):
            qmle.FitReport.from_dict(doc)

    @pytest.mark.parametrize("key, bad, named", [
        ("n", 0, "n"),
        ("q", 5, "theta_hat"),
        ("theta_hat", [2.0] * 21, "theta_hat"),
        ("theta_hat", [[2.0] * 22], "theta_hat"),
        ("gamma_tilde", [[1.0]], "gamma_tilde"),
        ("hessian", [[1.0] * 22] * 21, "hessian"),
    ], ids=["n-zero", "q-short", "theta-short", "theta-matrix",
            "gamma_tilde-1x1", "hessian-rows"])
    def test_report_dict_cross_checked(self, surface_1e3, key, bad, named):
        # Scored as it stands, each of these gives wrong criteria silently
        # (or -inf with a divide-by-zero warning for n = 0).
        doc = qmle.fit(surface_1e3, init=models.THETA1_TRUE).to_dict()
        doc[key] = bad
        with pytest.raises(ValueError, match=f"field '{named}'"):
            qmle.FitReport.from_dict(doc)


class TestMultistart:
    def test_single_start_with_init_equals_fit(self, surface_1e3):
        a = qmle.fit(surface_1e3, init=models.THETA1_TRUE)
        b = qmle.fit_multistart(surface_1e3, starts=1, seed=0,
                                init=models.THETA1_TRUE)
        assert np.array_equal(a.theta_hat, b.theta_hat)
        assert a.h_at_hat == b.h_at_hat

    def test_determinism_given_seed(self, surface_1e3):
        a = qmle.fit_multistart(surface_1e3, starts=4, seed=11)
        b = qmle.fit_multistart(surface_1e3, starts=4, seed=11)
        assert reports_equal(a, b)
        assert a.restarts == 3

    def test_agrees_with_true_value_start(self, model1):
        # reduced version of the 100-replication protocol study
        agree = 0
        opts = qmle.FitOptions(compute_hessian=False)
        for rep in range(8):
            bundle = diffsim.simulate_true_model(1000, 1.0, seed=500 + rep)
            surface = LikelihoodSurface(model1, quad_var(bundle.x_obs, 1.0))
            ref = qmle.fit(surface, init=models.THETA1_TRUE, options=opts)
            ms = qmle.fit_multistart(surface, starts=8, seed=rep, options=opts)
            agree += np.abs(ms.theta_hat - ref.theta_hat).max() < 1e-4
        assert agree >= 7

    def test_degenerate_data_no_crash(self, model1):
        # two increments of ten series: wildly rank-deficient
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 10))
        surface = LikelihoodSurface(model1, quad_var(x, 1.0))
        try:
            report = qmle.fit_multistart(surface, starts=2, seed=0)
        except AllStartsFailedError:
            return
        assert report.boundary_hit

    def test_restarts_on_moment_scale(self, surface_1e3, model1, monkeypatch):
        # every start is a lane of one lockstep loop
        drawn = []
        original = qmle._optimize
        monkeypatch.setattr(qmle, "_optimize",
                            lambda spec, score, inits: drawn.append(inits)
                            or original(spec, score, inits))
        qmle.fit_multistart(surface_1e3, starts=8, seed=3,
                            options=qmle.FitOptions(compute_hessian=False))
        centre = qmle.moment_start(model1, surface_1e3.quadvar.q_xx)
        (inits,) = drawn
        assert np.array_equal(inits[0], centre)
        restarts = inits[1:]
        assert restarts.shape == (7, model1.q)
        pos = model1.positive_mask
        width = np.maximum(1.0, np.abs(centre))
        lo = np.where(pos, centre / 4.0, centre - width)
        hi = np.where(pos, centre * 4.0, centre + width)
        lo, hi = np.maximum(lo, model1.lower), np.minimum(hi, model1.upper)
        assert np.all(restarts >= lo - 1e-12 * np.abs(lo))
        assert np.all(restarts <= hi + 1e-12 * np.abs(hi))
        # a Latin hypercube puts one draw in each of 7 strata per coordinate
        assert np.all(np.ptp(restarts, axis=0) > 0.5 * (hi - lo))

    def test_rejects_nonpositive_starts(self, surface_1e3):
        with pytest.raises(ValueError):
            qmle.fit_multistart(surface_1e3, starts=0)


class TestLimitOptimum:
    def test_no_start_runs_to_the_iteration_cap(self, model1, sigma0_oracle,
                                                monkeypatch):
        # One Latin-hypercube start of this seed drifts into a region where
        # the information is singular to working precision; a Cholesky step
        # there runs the start to the iteration cap, the least-squares
        # step leaves it after 128 iterations.
        runs = []
        optimize = qmle._optimize
        monkeypatch.setattr(qmle, "_optimize",
                            lambda *a, **k: runs.append(optimize(*a, **k))
                            or runs[-1])
        qmle.limit_optimum(model1, sigma0_oracle, starts=8, seed=13000)
        (lanes,) = runs
        assert lanes.iterations.shape == (8,)
        assert lanes.iterations.max() < qmle._MAX_ITER

    def test_model1_recovers_truth(self, model1, sigma0_oracle):
        theta_bar, value = qmle.limit_optimum(model1, sigma0_oracle,
                                              starts=4, seed=0)
        assert np.abs(theta_bar - models.THETA1_TRUE).max() < 1e-5
        expected = -5.0 - 0.5 * np.linalg.slogdet(sigma0_oracle)[1]
        assert abs(value - expected) < 1e-9

    def test_model2_recovers_truth_including_zero(self, model2, sigma0_oracle):
        theta_bar, _ = qmle.limit_optimum(model2, sigma0_oracle,
                                          starts=4, seed=0)
        assert np.abs(theta_bar - models.THETA2_TRUE).max() < 1e-5
        assert abs(theta_bar[5]) < 1e-5

    def test_misspecified_model_strictly_below(self, model1, model3,
                                               sigma0_oracle):
        _, v1 = qmle.limit_optimum(model1, sigma0_oracle, starts=4, seed=0)
        theta3_a, v3a = qmle.limit_optimum(model3, sigma0_oracle, starts=4, seed=0)
        theta3_b, v3b = qmle.limit_optimum(model3, sigma0_oracle, starts=6, seed=99)
        assert v3a < v1 - 1e-6
        # stable across seeds: same optimum found
        assert abs(v3a - v3b) < 1e-8
        assert np.abs(theta3_a - theta3_b).max() < 1e-4


class TestLanes:
    """``fit_lanes`` runs many fits as lanes of one lockstep loop; each lane
    must follow, bit for bit, the path its fit follows alone."""

    @staticmethod
    def assert_same_fit(lane, solo):
        assert np.array_equal(lane.theta_hat, solo.theta_hat)
        assert np.array_equal(lane.hessian, solo.hessian)
        assert lane.h_at_hat == solo.h_at_hat
        assert lane.iterations == solo.iterations
        assert lane.evaluations == solo.evaluations

    @pytest.mark.parametrize("fixture", ["model1", "model3"])
    def test_each_lane_equals_its_solo_fit(self, fixture, request):
        spec = request.getfixturevalue(fixture)
        surfaces = [LikelihoodSurface(spec, quad_var(
            diffsim.simulate_true_model(n, 1.0, seed=40 + k).x_obs, 1.0))
            for k, n in enumerate([100, 1000, 100, 1000, 1000])]
        inits = [qmle.moment_start(spec, s.quadvar.q_xx) for s in surfaces]
        chunk = qmle.fit_lanes(surfaces, [[init] for init in inits])
        part = qmle.fit_lanes(surfaces[1:4], [[init] for init in inits[1:4]])
        for k, (surface, init) in enumerate(zip(surfaces, inits)):
            solo = qmle.fit(surface, init=init)
            self.assert_same_fit(chunk[k], solo)
            if 1 <= k < 4:
                self.assert_same_fit(part[k - 1], solo)

    @pytest.mark.filterwarnings("error")
    def test_rejected_trial_leaves_other_lanes_alone(self, monkeypatch):
        # From the second start, one trial of this fit makes Sigma
        # indefinite through the free off-diagonal unique covariance.
        spec = make_structural_spec()
        around = np.where(spec.positive_mask, 4.0, 1.5)
        rng = np.random.default_rng(2)
        chol = np.linalg.cholesky(spec.sigma(around))
        x = (rng.standard_normal((201, spec.p)) @ chol.T).cumsum(axis=0)
        surface = LikelihoodSurface(spec, quad_var(x / np.sqrt(200), 1.0))
        wild = interior_theta(spec, np.random.default_rng(106), spread=0.9,
                              around=around)
        wild[[8, 10]] *= 0.05
        wild[9] = 0.0
        inits = [around, wild, 1.2 * around]
        statuses = []
        original = qmle.score_lanes

        def spy(*args, **kwargs):
            scores = original(*args, **kwargs)
            statuses.append(scores.status)
            return scores

        monkeypatch.setattr(qmle, "score_lanes", spy)
        chunk = qmle.fit_lanes([surface] * 3, [[init] for init in inits])
        rejected = np.concatenate(statuses)
        assert np.any(rejected == qlik.NOT_POSITIVE_DEFINITE)
        for lane, init in zip(chunk, inits):
            self.assert_same_fit(lane, qmle.fit(surface, init=init))

    def test_information_only_for_accepted_trials(self, model1, sigma0_oracle,
                                                   monkeypatch):
        # The information is needed only where the next step is solved: at
        # each start and each accepted trial.  Computed for every trial,
        # this limit optimum made 1617 informations for 183 iterations.
        informed, runs = [], []
        information = qlik.fisher_information
        monkeypatch.setattr(qlik, "fisher_information",
                            lambda d_sigma, inv: informed.append(len(d_sigma))
                            or information(d_sigma, inv))
        optimize = qmle._optimize
        monkeypatch.setattr(qmle, "_optimize",
                            lambda *a: runs.append(optimize(*a)) or runs[-1])
        qmle.limit_optimum(model1, sigma0_oracle, starts=8, seed=13000)
        (lanes,) = runs
        assert sum(informed) <= lanes.iterations.sum() + 8
        assert lanes.evaluations.sum() > 2 * sum(informed)

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
    def test_hessians_in_kernel_passes(self, model1, count, monkeypatch):
        # The best lanes' Hessians come from order-2 kernel passes of at
        # most four lanes, equal to the surface's own Hessian; no surface
        # Hessian is called.
        surfaces = [LikelihoodSurface(model1, quad_var(
            diffsim.simulate_true_model(n, 1.0, seed=60 + k).x_obs, 1.0))
            for k, n in enumerate([100, 1000] * 4 + [1000])][:count]
        passes, hessians = [], []
        original = qmle.score_lanes

        def spy(spec, theta, *args, order=1):
            if order == 2:
                passes.append(len(theta))
            return original(spec, theta, *args, order=order)

        monkeypatch.setattr(qmle, "score_lanes", spy)
        hessian = LikelihoodSurface.hessian
        monkeypatch.setattr(LikelihoodSurface, "hessian",
                            lambda *a: hessians.append(1) or hessian(*a))
        reports = qmle.fit_lanes(surfaces, [[models.THETA1_TRUE]] * count)
        assert not hessians
        assert len(passes) == math.ceil(count / 4)
        assert sum(passes) == count and max(passes) <= 4
        for surface, report in zip(surfaces, reports):
            assert np.array_equal(report.hessian,
                                  surface.hessian(report.theta_hat))
            assert np.array_equal(report.gamma_tilde,
                                  -report.hessian / surface.n)

    @pytest.mark.parametrize("status, error, message", [
        (qlik.SINGULAR, SingularStructureError, "numerically singular"),
        (qlik.NOT_POSITIVE_DEFINITE, NotPositiveDefiniteError,
         "not positive definite"),
        (qlik.NON_FINITE, NotPositiveDefiniteError, "not finite")],
        ids=["SINGULAR", "NOT_POSITIVE_DEFINITE", "NON_FINITE"])
    def test_rejected_hessian_lane_raises_as_the_surface_does(
            self, surface_1e3, monkeypatch, status, error, message):
        original = qmle.score_lanes

        def spy(*args, order=1):
            scores = original(*args, order=order)
            if order == 2:
                scores.status[-1] = status
            return scores

        monkeypatch.setattr(qmle, "score_lanes", spy)
        with pytest.raises(error, match=message):
            qmle.fit_lanes([surface_1e3] * 2, [[models.THETA1_TRUE]] * 2)

    def test_surfaces_of_one_spec(self, surface_1e3, model2):
        other = LikelihoodSurface(model2, surface_1e3.quadvar)
        with pytest.raises(ValueError, match="one spec"):
            qmle.fit_lanes([surface_1e3, other],
                           [[models.THETA1_TRUE], [models.THETA2_TRUE]])


class TestMomentStart:
    def test_inside_box_and_deterministic(self, model1, quadvar_1e4):
        a = qmle.moment_start(model1, quadvar_1e4.q_xx)
        b = qmle.moment_start(model1, quadvar_1e4.q_xx)
        assert np.array_equal(a, b)
        assert np.all(a >= model1.lower) and np.all(a <= model1.upper)

    def test_produces_valid_covariance(self, model1, model2, model3,
                                       quadvar_1e4):
        for spec in (model1, model2, model3):
            theta = qmle.moment_start(spec, quadvar_1e4.q_xx)
            sigma = spec.sigma(theta)
            assert np.linalg.eigvalsh(sigma).min() > 0

    def test_variances_track_data_scale(self, model1, quadvar_1e4):
        theta = qmle.moment_start(model1, quadvar_1e4.q_xx)
        diag = np.diag(quadvar_1e4.q_xx)
        assert np.allclose(theta[10:14], diag[:4] / 2)
        assert np.allclose(theta[14:20], diag[4:] / 2)


@pytest.mark.filterwarnings("error")
def test_distance_kernel():
    # The injectivity probe's kernel: value, gradient and Gauss-Newton
    # matrix of -|Sigma - sigma0|_F^2 / 2, and a lane whose I - B is
    # singular (b01 b10 = 1, with b01 freed as parameter 18) rejected alone.
    spec = edited_spec(make_structural_spec(),
                       {("b", 0, 1): {"free": {"index": 18}}}, "structural_b2")
    rng = np.random.default_rng(8)
    around = np.where(spec.positive_mask, 4.0, 0.3)
    theta = np.array([interior_theta(spec, rng, around=around) for _ in range(3)])
    theta[1, 4], theta[1, 18] = 2.0, 0.5
    sigma0 = spec.sigma(interior_theta(spec, rng, around=around))
    scores = qmle._distance_scores(spec, theta, sigma0)
    assert list(scores.status) == [qlik.OK, qlik.NON_FINITE, qlik.OK]
    assert scores.value[1] == -np.inf
    for lane in (0, 2):
        r = spec.sigma(theta[lane]) - sigma0
        jac = spec.forward(theta[lane], 1)[1].reshape(spec.q, -1)
        assert scores.value[lane] == -0.5 * np.sum(r * r)
        grad = -jac @ r.ravel()
        assert np.abs(scores.grad[lane] - grad).max() < 1e-12 * np.abs(grad).max()
        gauss_newton = jac @ jac.T
        assert (np.abs(scores.information([lane])[0] - gauss_newton).max()
                < 1e-12 * np.abs(gauss_newton).max())
