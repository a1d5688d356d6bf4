import collections

import numpy as np
import pytest
import scipy.optimize

from hfsem import diffsim, models, qmle
from hfsem.errors import AllStartsFailedError, SpecError
from hfsem.qlik import LikelihoodSurface, QuadVar, quad_var
from hfsem.semspec import SemSpec


@pytest.fixture(scope="module")
def surface_1e3(model1):
    bundle = diffsim.simulate_true_model(1000, 1.0, seed=314)
    return LikelihoodSurface(model1, quad_var(bundle.x_obs, 1.0))


def reports_equal(a, b):
    return (np.array_equal(a.theta_hat, b.theta_hat)
            and a.h_at_hat == b.h_at_hat
            and a.iterations == b.iterations
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
        hook = lambda theta: values.append(surface_1e3.value(theta))
        qmle._optimize_once(surface_1e3,
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
        # ``score``, one call per trial.
        calls = []
        original = LikelihoodSurface.score
        monkeypatch.setattr(LikelihoodSurface, "score",
                            lambda self, theta: calls.append(1)
                            or original(self, theta))
        qmle.fit(surface_1e3, init=models.THETA1_TRUE,
                 options=qmle.FitOptions(compute_hessian=False))
        assert 0 < len(calls) <= 87 // 3

    def test_one_forward_pass_per_evaluation(self, surface_1e3, monkeypatch):
        # One forward pass per score or value_and_grad call and one for the
        # Hessian; a central-difference Hessian of this model makes 2q = 44
        # gradient calls, 88 Sigma/Jacobian builds.
        calls = collections.Counter()

        def count(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args: calls.update([name])
                                or original(*args))

        for name in ("score", "value_and_grad", "hessian"):
            count(LikelihoodSurface, name)
        count(SemSpec, "forward")
        report = qmle.fit(surface_1e3, init=models.THETA1_TRUE)
        assert calls["hessian"] == 1
        assert calls["score"] > 0
        assert (calls["forward"]
                <= calls["score"] + calls["value_and_grad"] + 1)
        before = calls["forward"]
        surface_1e3.hessian(report.theta_hat)
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
        step = qmle._scoring_step(info, grad)
        assert np.abs(info @ step - grad).max() < 1e-12
        assert qmle._scoring_step(np.empty((0, 0)), np.empty(0)).shape == (0,)

    def test_scoring_step_drops_numerically_null_directions(self):
        # Cholesky factors this block, but it is singular to working
        # precision: the step must be least squares' (no move along the
        # null direction), not a 1e20-sized one
        info = np.diag([2.0, 1.0, 3.0, 1e-20])
        grad = np.ones(4)
        step = qmle._scoring_step(info, grad)
        assert np.array_equal(step, np.linalg.lstsq(info, grad, rcond=None)[0])
        assert step[3] == 0.0

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
    ], ids=["q-null", "theta-text", "theta-strings", "hessian-ragged",
            "iterations-text", "j_flag-text", "converged-int",
            "boundary_hit-null", "n-float", "restarts-bool", "h_at_hat-text",
            "grad_norm-bool", "theta-numeric-strings", "gamma_tilde-bools",
            "model-number"])
    def test_report_dict_types_checked(self, surface_1e3, key, bad):
        doc = qmle.fit(surface_1e3, init=models.THETA1_TRUE).to_dict()
        doc[key] = bad
        with pytest.raises(ValueError, match=f"field '{key}'"):
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
        drawn = []
        original = qmle._optimize_once
        monkeypatch.setattr(qmle, "_optimize_once",
                            lambda surface, init: drawn.append(init)
                            or original(surface, init))
        qmle.fit_multistart(surface_1e3, starts=8, seed=3,
                            options=qmle.FitOptions(compute_hessian=False))
        centre = qmle.moment_start(model1, surface_1e3.quadvar.q_xx)
        assert np.array_equal(drawn[0], centre)
        restarts = np.array(drawn[1:])
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
        once = qmle._optimize_once
        monkeypatch.setattr(qmle, "_optimize_once",
                            lambda *a, **k: runs.append(once(*a, **k)) or runs[-1])
        qmle.limit_optimum(model1, sigma0_oracle, starts=8, seed=13000)
        assert len(runs) == 8
        assert max(run[3] for run in runs) < qmle._MAX_ITER

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
