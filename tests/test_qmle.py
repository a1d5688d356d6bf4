import collections
import hashlib
import json
import math

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import lapack

from hfsem import diffsim, infocrit, models, qlik, qmle
from hfsem.errors import (AllStartsFailedError, NotPositiveDefiniteError,
                          SingularStructureError, SpecError)
from hfsem.qlik import LikelihoodSurface, QuadVar, quad_var
from hfsem.semspec import SemSpec
from tests.conftest import (all_fixed_spec, column_reports, edited_spec,
                            interior_theta, make_structural_spec,
                            per_lane_free_steps, stacked_d1)


@pytest.fixture(scope="module")
def quadvar_1e3():
    return quad_var(diffsim.simulate_true_model(1000, 1.0, seed=314).x_obs, 1.0)


@pytest.fixture(scope="module")
def report_1e3(model1, quadvar_1e3):
    return qmle.fit_multistart(model1, quadvar_1e3, 1, init=models.THETA1_TRUE)


def scoring_step(info, grad, free):
    """The scoring step of one lane: ``qmle._free_steps`` with least squares
    on a one-lane stack."""
    return qmle._free_steps(info[None], grad[None], free[None],
                            least_squares=True)[0][0]


def reports_equal(a, b):
    return (np.array_equal(a.theta_hat, b.theta_hat)
            and a.h_at_hat == b.h_at_hat
            and a.iterations == b.iterations
            and a.evaluations == b.evaluations
            and np.array_equal(a.hessian, b.hessian, equal_nan=True)
            and a.converged == b.converged
            and a.boundary_hit == b.boundary_hit)


class TestFit:
    def test_scalar_closed_form_maximizer(self, scalar_model):
        q0 = 3.7
        qv = QuadVar(np.diag([q0, 1.2]), n=200, T=1.0)
        report = qmle.fit_multistart(scalar_model, qv, 1, init=np.array([1.0]))
        assert abs(report.theta_hat[0] - q0) < 1e-8
        assert report.converged and not report.boundary_hit

    def test_recovers_truth_approximately(self, model1, quadvar_1e3):
        # loose sanity bound; the convergence-rate study lives in the
        # acceptance suite
        report = qmle.fit_multistart(model1, quadvar_1e3, 1,
                                     init=models.THETA1_TRUE)
        assert report.converged
        assert np.abs(report.theta_hat - models.THETA1_TRUE).max() < 3.0
        assert infocrit.criteria_row(report).j_flag

    def test_convergence_criterion_scales_with_value(self, model1, quadvar_1e3):
        report = qmle.fit_multistart(model1, quadvar_1e3, 1,
                                     init=models.THETA1_TRUE)
        assert report.grad_norm < 1e-6 * (1 + abs(report.h_at_hat))

    def test_determinism(self, model1, quadvar_1e3):
        a, b = (qmle.fit_multistart(model1, quadvar_1e3, 1,
                                    init=models.THETA1_TRUE) for _ in range(2))
        assert reports_equal(a, b)

    def test_monotone_accepted_iterates(self, model1, quadvar_1e3):
        # One lane from the moment start; a trial is accepted exactly when
        # it is a new maximum of its lane.
        q_xx, n = quadvar_1e3.q_xx[None], np.array([quadvar_1e3.n])
        best, accepted = -np.inf, []

        def kernel(theta, at):
            nonlocal best
            scores = qmle.score_lanes(model1, theta, q_xx, n)
            if scores.value[0] > best:
                best = scores.value[0]
                accepted.append(theta[0].copy())
            return scores

        qmle._optimize(model1, kernel,
                       qmle.moment_start(model1, q_xx[0])[None])
        surface = LikelihoodSurface(model1, quadvar_1e3)
        values = np.array([surface.value(theta) for theta in accepted])
        assert len(values) > 5
        assert np.all(np.diff(values) >= -1e-9 * (1 + np.abs(values[:-1])))

    def test_default_init_is_moment_start(self, model1, quadvar_1e3):
        auto = qmle.fit_multistart(model1, quadvar_1e3, 1)
        explicit = qmle.fit_multistart(
            model1, quadvar_1e3, 1,
            init=qmle.moment_start(model1, quadvar_1e3.q_xx))
        assert reports_equal(auto, explicit)

    def test_matches_lbfgsb_reference(self, model1, quadvar_1e3):
        # scipy's L-BFGS-B on the raw box, run until its line search
        # stalls, is an independent reference maximizer
        report = qmle.fit_multistart(model1, quadvar_1e3, 1,
                                     init=models.THETA1_TRUE)
        surface = LikelihoodSurface(model1, quadvar_1e3)

        def negobj(theta):
            v, g = surface.value_and_grad(theta)
            return -v, -g

        raw = scipy.optimize.minimize(
            negobj, models.THETA1_TRUE, jac=True, method="L-BFGS-B",
            bounds=list(zip(model1.lower, model1.upper)),
            options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-13, "maxcor": 30})
        # both stop inside the same numerical optimum; agreement is limited
        # by the softest curvature direction, not by the method
        assert np.abs(report.theta_hat - raw.x).max() < 1e-4
        assert abs(report.h_at_hat + raw.fun) < 1e-8 * (1 + abs(raw.fun))

    def test_value_and_grad_calls(self, model1, quadvar_1e3, monkeypatch):
        # The L-BFGS-B estimator that scoring replaced (log-scaled variances,
        # run until its line search stalled) made 87 value_and_grad calls
        # for this fit, the Hessian left out.  Scoring evaluates through
        # the lane kernel, one lane per trial, and reports the count.
        lanes = []
        original = qmle.score_lanes
        monkeypatch.setattr(qmle, "score_lanes",
                            lambda spec, theta, *args: lanes.append(len(theta))
                            or original(spec, theta, *args))
        report = qmle.fit_multistart(model1, quadvar_1e3, 1,
                                     init=models.THETA1_TRUE)
        assert 0 < sum(lanes) == report.evaluations <= 87 // 3

    def test_one_forward_pass_per_evaluation(self, model1, quadvar_1e3,
                                             monkeypatch):
        # One forward pass per kernel pass, and none after the loop: the
        # report's Hessian is that of its last accepted pass.  A
        # central-difference Hessian of this model makes 2q = 44 gradient
        # calls, 88 Sigma/Jacobian builds.
        calls = collections.Counter()

        def count(owner, name):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.update(
                [name]) or original(*args, **kwargs))

        count(qmle, "score_lanes")
        count(LikelihoodSurface, "hessian")
        count(SemSpec, "forward")
        report = qmle.fit_multistart(model1, quadvar_1e3, 1,
                                     init=models.THETA1_TRUE)
        assert calls["hessian"] == 0
        assert calls["score_lanes"] == report.evaluations > 0
        assert calls["forward"] == calls["score_lanes"]
        before = calls["forward"]
        surface = LikelihoodSurface(model1, quadvar_1e3)
        assert np.array_equal(surface.hessian(report.theta_hat),
                              report.hessian)
        assert calls["forward"] - before == 1

    def test_boundary_solution_reported(self, scalar_model):
        # quadratic covariation below the variance floor pushes the
        # maximizer onto the box
        qv = QuadVar(np.diag([1e-9, 1.0]), n=50, T=1.0)
        report = qmle.fit_multistart(scalar_model, qv, 1, init=np.array([1.0]))
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
        qv = quad_var(x / np.sqrt(399), 1.0)
        solves = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: solves.append(1) or lstsq(*a, **k))
        report = qmle.fit_multistart(spec, qv, 1, init=np.array(
            [1.5, 2.0, 0.5, 2.0, 1.5, 0.8, 0.7]))
        assert solves
        assert report.converged
        assert abs(report.h_at_hat / -1273.0702524547814 - 1.0) < 1e-10

    def test_indefinite_hessian_takes_scoring_step(self, degenerate_model,
                                                   monkeypatch):
        # From this start the free block of -H is indefinite for the first
        # two steps: those take the scoring step on the information of the
        # same pass, and the fit still reaches the value the all-scoring
        # estimator reached.
        spec = degenerate_model
        rng = np.random.default_rng(0)
        chol = np.linalg.cholesky(spec.sigma(np.array([2.0] + [1.0] * 6)))
        x = (rng.standard_normal((400, spec.p)) @ chol.T).cumsum(axis=0)
        qv = quad_var(x / np.sqrt(399), 1.0)
        indefinite = []
        ascent = qmle._ascent_step

        def spy(scores, at, hessian, grad, free):
            steps = ascent(scores, at, hessian, grad, free)
            for lane, keep in enumerate(free):
                block = -hessian[lane][np.ix_(keep, keep)]
                if np.linalg.eigvalsh(block).min() < 0.0:
                    indefinite.append(lane)
                    scoring = scoring_step(
                        scores.information(at[lane:lane + 1])[0],
                        grad[lane], keep)
                    assert np.array_equal(steps[lane], scoring)
            return steps

        monkeypatch.setattr(qmle, "_ascent_step", spy)
        report = qmle.fit_multistart(spec, qv, 1, init=np.array(
            [1.5, 2.0, 0.5, 2.0, 1.5, 0.8, 0.7]))
        assert len(indefinite) >= 2
        assert report.converged
        assert abs(report.h_at_hat / -1273.0702524547814 - 1.0) < 1e-10

    def test_newton_step_where_hessian_is_negative_definite(self, model1,
                                                            quadvar_1e3):
        # Lanes of one pass: one at the true value, where -H is positive
        # definite and the step is Newton's, and one with a coordinate
        # frozen, solved on the free block alone.
        theta = np.array([models.THETA1_TRUE, models.THETA1_TRUE * 1.01])
        scores = qlik.score_lanes(model1, theta,
                                  np.array([quadvar_1e3.q_xx] * 2),
                                  np.full(2, float(quadvar_1e3.n)))
        at = np.arange(2)
        hessian = scores.hessian(at)
        free = np.ones((2, model1.q), dtype=bool)
        free[1, 3] = False
        steps = qmle._ascent_step(scores, at, hessian, scores.grad, free)
        assert np.all(np.linalg.eigvalsh(-hessian) > 0.0)
        newton = np.linalg.solve(-hessian[0], scores.grad[0])
        assert np.abs(steps[0] - newton).max() < 1e-10 * np.abs(newton).max()
        keep = free[1]
        block = -hessian[1][np.ix_(keep, keep)]
        assert steps[1, 3] == 0.0
        assert np.abs(block @ steps[1, keep] - scores.grad[1, keep]).max() < 1e-9

    def test_scoring_step_solves_by_cholesky(self):
        rng = np.random.default_rng(4)
        b = rng.standard_normal((6, 6))
        info, grad = b @ b.T + np.eye(6), rng.standard_normal(6)
        step = scoring_step(info, grad, np.ones(6, dtype=bool))
        assert np.abs(info @ step - grad).max() < 1e-12
        # frozen coordinates do not move; the free block is solved alone
        free = np.array([True, False, True, True, False, True])
        step = scoring_step(info, grad, free)
        assert np.all(step[~free] == 0.0)
        block = info[np.ix_(free, free)]
        assert np.abs(block @ step[free] - grad[free]).max() < 1e-12
        # with every coordinate frozen the step is zero
        frozen = scoring_step(info, grad, np.zeros(6, dtype=bool))
        assert np.array_equal(frozen, np.zeros(6))

    def test_scoring_step_drops_numerically_null_directions(self):
        # Cholesky factors this block, but it is singular to working
        # precision: the step must be least squares' (no move along the
        # null direction), not a 1e20-sized one
        info = np.diag([2.0, 1.0, 3.0, 1e-20])
        grad = np.ones(4)
        step = scoring_step(info, grad, np.ones(4, dtype=bool))
        assert np.array_equal(step, np.linalg.lstsq(info, grad, rcond=None)[0])
        assert step[3] == 0.0

    def test_scoring_step_matches_per_lane_reference(self, monkeypatch):
        # Lanes whose free block is whole, partial, empty, singular to
        # working precision (whole and partial) and not positive definite:
        # the gathers, the blocks' 1-norms and the ungathered whole-block
        # solve give the per-lane code's steps and flags bit for bit, in
        # the Newton mode (failed lanes keep a zero step) and the scoring
        # mode (failed lanes solved by least squares).
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
        # the blocks reach dlange in Fortran order, which f2py does not copy
        dlange, orders = lapack.dlange, []
        monkeypatch.setattr(lapack, "dlange", lambda norm, a: orders.append(
            a.flags.f_contiguous) or dlange(norm, a))
        for least_squares in (False, True):
            solves[:], norms[:], orders[:] = [], [], []
            step, failed = qmle._free_steps(info, grad, free, least_squares)
            # the empty, singular and indefinite lanes
            assert failed.tolist() == [False, False, True, True, True, True]
            assert len(solves) == (4 if least_squares else 0)
            ours, norms[:] = list(norms), []
            reference = per_lane_free_steps(info, grad, free, least_squares)
            assert np.array_equal(step, reference[0])
            assert np.array_equal(failed, reference[1])
            assert len(ours) == 4 and ours == norms  # 1-norms, bit for bit
            assert orders == [True] * 4
            assert np.abs(info[0] @ step[0] - grad[0]).max() < 1e-12
            assert np.array_equal(step[2], np.zeros(q))
            assert step[3, 3] == 0.0 and step[4, 3] == 0.0
            # Newton's failed lanes keep a zero step; scoring solves them
            assert np.all(step[3:].any(axis=1) == least_squares)

    def test_free_steps_hold_no_stack(self):
        # A 128-lane round at q = 23, half its lanes with a frozen
        # coordinate: the solve gathers one block at a time and makes no
        # (L, q, q) copy for the 1-norms.
        import tracemalloc

        rng = np.random.default_rng(3)
        lanes, q = 128, 23
        b = rng.standard_normal((lanes, q, q))
        matrix = b @ np.swapaxes(b, 1, 2) + q * np.eye(q)
        matrix = 0.5 * (matrix + np.swapaxes(matrix, 1, 2))
        grad = rng.standard_normal((lanes, q))
        free = np.ones((lanes, q), dtype=bool)
        free[np.arange(0, lanes, 2), rng.integers(q, size=lanes // 2)] = False
        tracemalloc.start()
        try:
            steps, failed = qmle._free_steps(matrix, grad, free)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not failed.any()
        assert peak < matrix.nbytes / 2

    @pytest.mark.parametrize("length", [1, 21, 23])
    def test_init_of_wrong_length_rejected(self, model1, quadvar_1e3, length):
        for starts in (1, 2):
            with pytest.raises(SpecError, match="length q=22"):
                qmle.fit_multistart(model1, quadvar_1e3, starts,
                                    init=np.full(length, 2.0))

    def test_report_dict_fields_checked(self, report_1e3):
        doc = report_1e3.to_dict()
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
        ("converged", 1),
        ("boundary_hit", None),
        ("n", 1000.5),
        ("restarts", True),
        ("h_at_hat", "-3649.5"),
        ("grad_norm", True),
        ("theta_hat", ["3.0"] * 22),
        ("model", 5),
        ("evaluations", 12.5),
        ("h_at_hat", math.nan),
        ("grad_norm", math.inf),
        ("theta_hat", [2.0] * 21 + [-math.inf]),
        ("hessian", [[math.nan] * 22] * 22),
    ], ids=["q-null", "theta-text", "theta-strings", "hessian-ragged",
            "iterations-text", "converged-int",
            "boundary_hit-null", "n-float", "restarts-bool", "h_at_hat-text",
            "grad_norm-bool", "theta-numeric-strings", "model-number",
            "evaluations-float", "h_at_hat-nan", "grad_norm-inf", "theta-inf",
            "hessian-nan"])
    def test_report_dict_types_checked(self, report_1e3, key, bad):
        doc = report_1e3.to_dict()
        doc[key] = bad
        with pytest.raises(ValueError, match=f"field '{key}'"):
            qmle.FitReport.from_dict(doc)

    @pytest.mark.parametrize("key, bad, named", [
        ("n", 0, "n"),
        ("q", 5, "theta_hat"),
        ("theta_hat", [2.0] * 21, "theta_hat"),
        ("theta_hat", [[2.0] * 22], "theta_hat"),
        ("hessian", [[1.0] * 22] * 21, "hessian"),
        ("hessian", [], "hessian"),
    ], ids=["n-zero", "q-short", "theta-short", "theta-matrix",
            "hessian-rows", "hessian-empty"])
    def test_report_dict_cross_checked(self, report_1e3, key, bad, named):
        # Scored as it stands, each of these gives wrong criteria silently
        # (or -inf with a divide-by-zero warning for n = 0).
        doc = report_1e3.to_dict()
        doc[key] = bad
        with pytest.raises(ValueError, match=f"field '{named}'"):
            qmle.FitReport.from_dict(doc)

    @pytest.mark.parametrize("hessian", [None, [[1.0, 0.0], [0.0, 1.0]]],
                             ids=["null", "given"])
    def test_report_dict_checks_q_before_allocating(self, report_1e3,
                                                    hessian):
        # A q that theta_hat does not match is named before anything of
        # size q * q is built: no 72 MB NaN Hessian for q = 3000.
        import tracemalloc

        doc = report_1e3.to_dict()
        doc.update(q=3000, theta_hat=[1.0, 2.0], hessian=hessian)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="field 'theta_hat'"):
                qmle.FitReport.from_dict(doc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_report_dict_round_trip_with_no_free_parameter(self, model1,
                                                          quadvar_1e3):
        # JSON has no 0 x 0 array: to_dict writes the Hessian of q = 0 as
        # [], and from_dict reads that back as (0, 0).
        spec = all_fixed_spec(model1, models.THETA1_TRUE, "fixed1")
        doc = qmle.fit_multistart(spec, quadvar_1e3, 1).to_dict()
        assert doc["theta_hat"] == doc["hessian"] == []
        report = qmle.FitReport.from_dict(json.loads(json.dumps(doc)))
        assert report.hessian.shape == (0, 0)
        assert report.to_dict() == doc

    def test_report_dict_drops_the_criteria(self, report_1e3):
        # The event J and Gamma_tilde are infocrit's, computed from the
        # Hessian; a document that still carries them is rejected.
        doc = report_1e3.to_dict()
        assert "j_flag" not in doc and "gamma_tilde" not in doc
        with pytest.raises(ValueError, match=r"unknown keys \['j_flag'\]"):
            qmle.FitReport.from_dict({**doc, "j_flag": True})


def structural_b2():
    """The structural spec with b01 freed as parameter 18: I - B is
    singular where b01 b10 = 1 (b10 is parameter 4)."""
    return edited_spec(make_structural_spec(),
                       {("b", 0, 1): {"free": {"index": 18}}}, "structural_b2")


class TestAllStartsFailed:
    """The one failure exit of a single-Q fit: a start where I - B is
    singular scores outside the admissible region, and with no other start
    the fit raises AllStartsFailedError; limit_optimum raises it there."""

    message = "^all 1 starts failed for 'structural_b2'$"

    @pytest.fixture()
    def case(self):
        spec = structural_b2()
        rng = np.random.default_rng(8)
        around = np.where(spec.positive_mask, 4.0, 0.3)
        singular = interior_theta(spec, rng, around=around)
        singular[4], singular[18] = 2.0, 0.5
        sigma0 = spec.sigma(interior_theta(spec, rng, around=around))
        return spec, singular, sigma0

    def test_fit_multistart(self, case):
        spec, singular, sigma0 = case
        qv = QuadVar(sigma0, n=1000, T=1.0)
        with pytest.raises(AllStartsFailedError, match=self.message):
            qmle.fit_multistart(spec, qv, starts=1, init=singular)

    def test_limit_optimum(self, case, monkeypatch):
        # With one start the moment start is the only one; made singular,
        # it fails the limit optimum through the same raise.
        spec, singular, sigma0 = case
        monkeypatch.setattr(qmle, "moment_start", lambda *args: singular)
        with pytest.raises(AllStartsFailedError, match=self.message):
            qmle.limit_optimum(spec, sigma0, starts=1, seed=0)


class TestMultistart:
    @pytest.mark.parametrize("init", [None, models.THETA1_TRUE],
                             ids=["moment", "given"])
    def test_fit_is_one_start(self, model1, quadvar_1e3, init):
        # One start is one lane, from init or the moment start, and draws
        # no Latin-hypercube start, so the seed does not matter.
        a, b = (qmle.fit_multistart(model1, quadvar_1e3, 1, seed, init)
                for seed in (0, 5))
        start = qmle.moment_start(model1, quadvar_1e3.q_xx) if init is None else init
        (lane,) = column_reports(model1, [quadvar_1e3.n], qmle.fit_lanes(
            model1, quadvar_1e3.q_xx[None], [quadvar_1e3.n], [[start]]))
        assert a.to_dict() == b.to_dict() == lane.to_dict()

    def test_determinism_given_seed(self, model1, quadvar_1e3):
        a, b = (qmle.fit_multistart(model1, quadvar_1e3, starts=4, seed=11)
                for _ in range(2))
        assert reports_equal(a, b)
        assert a.restarts == 3

    def test_agrees_with_true_value_start(self, model1):
        # reduced version of the 100-replication protocol study
        agree = 0
        for rep in range(8):
            bundle = diffsim.simulate_true_model(1000, 1.0, seed=500 + rep)
            qv = quad_var(bundle.x_obs, 1.0)
            ref = qmle.fit_multistart(model1, qv, 1, init=models.THETA1_TRUE)
            ms = qmle.fit_multistart(model1, qv, starts=8, seed=rep)
            agree += np.abs(ms.theta_hat - ref.theta_hat).max() < 1e-4
        assert agree >= 7

    def test_degenerate_data_no_crash(self, model1):
        # two increments of ten series: wildly rank-deficient
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 10))
        try:
            report = qmle.fit_multistart(model1, quad_var(x, 1.0), starts=2,
                                         seed=0)
        except AllStartsFailedError:
            return
        assert report.boundary_hit

    def test_restarts_on_moment_scale(self, model1, quadvar_1e3, monkeypatch):
        # every start is a lane of one lockstep loop
        drawn = []
        original = qmle._optimize
        monkeypatch.setattr(qmle, "_optimize",
                            lambda spec, score, inits: drawn.append(inits)
                            or original(spec, score, inits))
        qmle.fit_multistart(model1, quadvar_1e3, starts=8, seed=3)
        centre = qmle.moment_start(model1, quadvar_1e3.q_xx)
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

    def test_rejects_nonpositive_starts(self, model1, quadvar_1e3):
        with pytest.raises(ValueError):
            qmle.fit_multistart(model1, quadvar_1e3, starts=0)

    @pytest.mark.parametrize("starts", [2.5, True, 0])
    def test_starts_must_be_a_positive_integer(self, model1, quadvar_1e3,
                                               starts):
        with pytest.raises(ValueError, match="starts must be an integer"):
            qmle.fit_multistart(model1, quadvar_1e3, starts=starts)


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

    @pytest.mark.parametrize("scale, entry, shift, message", [
        (1.0, (0, 0), np.nan, "non-finite"),
        (1.0, (0, 1), 0.1, "not symmetric"),
        (-1.0, (0, 0), 0.0, "target sigma0 is not positive definite"),
        (0.0, (0, 0), 0.0, "target sigma0 is not positive definite")],
        ids=["nan", "asymmetric", "negated", "zero"])
    def test_bad_target_rejected(self, model1, sigma0_oracle, scale, entry,
                                 shift, message):
        # The target is checked as a QuadVar's q_xx is, before a NaN
        # can surface as a SpecError on theta; one that is not positive
        # definite leaves the criterion unbounded, and a fit would end at
        # the box's edge with a meaningless value.
        sigma0 = scale * sigma0_oracle
        sigma0[entry] += shift
        with pytest.raises(ValueError, match=message) as err:
            qmle.limit_optimum(model1, sigma0, starts=2, seed=0)
        assert type(err.value) is ValueError


@pytest.mark.parametrize("entry", ["simulate_custom", "start_set"])
@pytest.mark.parametrize("seed", [1.5, -1, "0", True], ids=repr)
def test_seed_is_an_integer(model1, quadvar_1e3, entry, seed):
    # start_set also reads the seed of fit_multistart and limit_optimum.
    # Unread, these fail inside numpy or, for True, run as seed 1.
    calls = {
        "simulate_custom": lambda: diffsim.simulate_custom(
            diffsim.load_truth(diffsim.TRUE_MODEL_NAME), n=10, T=1.0,
            seed=seed),
        "start_set": lambda: qmle.start_set(
            model1, quadvar_1e3.q_xx, starts=2, seed=seed),
    }
    with pytest.raises(ValueError, match="^seed must be an integer"):
        calls[entry]()


# (d, count) cases of the Latin-hypercube check: the bundled models' q,
# many strata, one stratum and no points.
LHS_CASES = [(22, 7), (23, 7), (14, 49), (5, 1), (3, 0), (22, 3)]


@pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**63 + 5, 3001, 13000])
def test_latin_hypercube_matches_scipy(seed):
    from scipy.stats import qmc

    for d, count in LHS_CASES:
        want = qmc.LatinHypercube(d=d, seed=seed).random(count)
        got = qmle._latin_hypercube(d, count, seed)
        assert got.shape == want.shape == (count, d)
        assert np.array_equal(got, want), (d, count)


def test_latin_hypercube_one_point_per_stratum():
    sample = qmle._latin_hypercube(6, 40, seed=5)
    assert sample.min() >= 0.0 and sample.max() < 1.0
    for column in sample.T:
        assert sorted(np.floor(column * 40).astype(int)) == list(range(40))


def fit_stack(spec, quadvars, start_sets):
    """``fit_lanes`` on the stacked Q and n of ``quadvars``, its rows as
    reports (``column_reports``)."""
    n = np.array([qv.n for qv in quadvars])
    return column_reports(spec, n, qmle.fit_lanes(
        spec, np.array([qv.q_xx for qv in quadvars]), n, start_sets))


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
        quadvars = [quad_var(
            diffsim.simulate_true_model(n, 1.0, seed=40 + k).x_obs, 1.0)
            for k, n in enumerate([100, 1000, 100, 1000, 1000])]
        inits = [qmle.moment_start(spec, qv.q_xx) for qv in quadvars]
        chunk = fit_stack(spec, quadvars, [[init] for init in inits])
        part = fit_stack(spec, quadvars[1:4], [[init] for init in inits[1:4]])
        for k, (qv, init) in enumerate(zip(quadvars, inits)):
            solo = qmle.fit_multistart(spec, qv, 1, init=init)
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
        qv = quad_var(x / np.sqrt(200), 1.0)
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
        chunk = fit_stack(spec, [qv] * 3, [[init] for init in inits])
        rejected = np.concatenate(statuses)
        assert np.any(rejected == qlik.NOT_POSITIVE_DEFINITE)
        for lane, init in zip(chunk, inits):
            self.assert_same_fit(lane, qmle.fit_multistart(spec, qv, 1,
                                                           init=init))

    def test_information_only_for_accepted_trials(self, model1, sigma0_oracle,
                                                   monkeypatch):
        # The information is needed only where the next step is solved: at
        # each start and each accepted trial.  Computed for every trial,
        # this limit optimum made 1617 informations for 183 iterations.
        informed, runs = [], []
        information = qlik.LaneScores.information
        monkeypatch.setattr(qlik.LaneScores, "information",
                            lambda scores, lanes: informed.append(len(lanes))
                            or information(scores, lanes))
        optimize = qmle._optimize
        monkeypatch.setattr(qmle, "_optimize",
                            lambda *a: runs.append(optimize(*a)) or runs[-1])
        qmle.limit_optimum(model1, sigma0_oracle, starts=8, seed=13000)
        (lanes,) = runs
        assert sum(informed) <= lanes.iterations.sum() + 8
        assert lanes.evaluations.sum() > 2 * sum(informed)

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 9])
    def test_hessians_in_kernel_passes(self, model1, count, monkeypatch):
        # The best lanes' Hessians come from the loop's own kernel passes:
        # no kernel pass and no surface Hessian after _optimize, and each
        # equals the surface's own Hessian at theta_hat.
        quadvars = [quad_var(
            diffsim.simulate_true_model(n, 1.0, seed=60 + k).x_obs, 1.0)
            for k, n in enumerate([100, 1000] * 4 + [1000])][:count]
        late, hessians, done = [], [], []
        score_lanes, optimize = qmle.score_lanes, qmle._optimize
        monkeypatch.setattr(qmle, "score_lanes", lambda *a, **k: late.extend(
            done) or score_lanes(*a, **k))
        monkeypatch.setattr(qmle, "_optimize", lambda *a: (
            optimize(*a), done.append(1))[0])
        hessian = LikelihoodSurface.hessian
        monkeypatch.setattr(LikelihoodSurface, "hessian",
                            lambda *a: hessians.append(1) or hessian(*a))
        reports = fit_stack(model1, quadvars, [[models.THETA1_TRUE]] * count)
        assert done == [1]
        assert not late and not hessians
        for qv, report in zip(quadvars, reports):
            surface = LikelihoodSurface(model1, qv)
            assert np.array_equal(report.hessian,
                                  surface.hessian(report.theta_hat))

    @pytest.mark.parametrize("p, count, sets, message", [
        (9, 2, 2, r"^Q stack is \(2, 9, 9\), model observes p=10$"),
        (10, 3, 2, r"\(R, 10, 10\) Q stack.*Q \(2, 10, 10\), n \(3,\) and 2 "),
        (10, 2, 1, r"\(R, 10, 10\) Q stack.*Q \(2, 10, 10\), n \(2,\) and 1 ")],
        ids=["p", "n", "start_sets"])
    def test_shapes_checked_before_any_pass(self, model1, quadvar_1e3, p,
                                            count, sets, message, monkeypatch):
        # A Q stack of the wrong p (by the spec's one shape rule), or an n
        # or start-set list of another length than the stack, is named
        # before the loop scores a lane.
        passes = []
        monkeypatch.setattr(qmle, "score_lanes", lambda *a: passes.append(a))
        q_xx = np.array([quadvar_1e3.q_xx[-p:, -p:]] * 2)
        with pytest.raises(ValueError, match=message):
            qmle.fit_lanes(model1, q_xx, [1000] * count,
                           [[models.THETA1_TRUE]] * sets)
        assert passes == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [0, 100.5, -3, np.inf, np.nan],
                             ids=["0", "100.5", "-3", "inf", "nan"])
    def test_n_not_a_grid_size_refused(self, model1, quadvar_1e3, n,
                                       monkeypatch):
        # Each n must be an integer of at least 1, as FitReport.from_dict
        # requires: 0 fitted to a "converged" report with infinite
        # criteria, and 100.5 was fitted as 100.5 but reported as 100.
        passes = []
        monkeypatch.setattr(qmle, "score_lanes", lambda *a: passes.append(a))
        q_xx = np.array([quadvar_1e3.q_xx] * 2)
        with pytest.raises(ValueError,
                           match=r"^n\[1\] must be an integer of at least 1, got "):
            qmle.fit_lanes(model1, q_xx, [1000, n],
                           [[models.THETA1_TRUE]] * 2)
        assert passes == []


    def test_rows_are_multistart_reports(self, model1):
        # Each row of a stack of multistart fits, from the start set
        # fit_multistart draws for its Q, is that Q's fit_multistart report.
        quadvars = [quad_var(
            diffsim.simulate_true_model(n, 1.0, seed=70 + k).x_obs, 1.0)
            for k, n in enumerate([100, 1000, 400])]
        sets = [qmle.start_set(model1, qv.q_xx, 3, seed=k)
                for k, qv in enumerate(quadvars)]
        rows = fit_stack(model1, quadvars, sets)
        for k, (qv, row) in enumerate(zip(quadvars, rows)):
            solo = qmle.fit_multistart(model1, qv, 3, seed=k)
            assert row.to_dict() == solo.to_dict()
            assert np.array_equal(row.hessian, solo.hessian)
            assert row.restarts == 2

    def test_best_lane_ties_keep_earliest_start(self, model1, quadvar_1e3,
                                                monkeypatch):
        # Lanes with values drawn from a few levels (many ties), some not
        # started, in sets of 0 to 4 starts: each row gathers the earliest
        # admissible lane of highest value, as an argmax over its
        # admissible lanes does, and a row with none is failed.
        rng = np.random.default_rng(3)
        sizes = rng.integers(0, 5, size=60)
        count, q = sizes.sum(), model1.q
        started = rng.random(count) < 0.8
        value = np.where(started, rng.integers(-3, 0, count).astype(float),
                         -np.inf)
        theta = np.repeat(models.THETA1_TRUE[None], count, axis=0)
        theta[:, 0] += np.arange(count)       # tells the lanes apart
        fake = qmle._Lanes(theta, value, np.zeros((count, q)),
                           np.arange(count)[:, None, None] * np.ones((q, q)),
                           np.arange(count), np.arange(count) + 1, started)
        monkeypatch.setattr(qmle, "_optimize", lambda *args: fake)
        fits = qmle.fit_lanes(model1, np.array([quadvar_1e3.q_xx] * len(sizes)),
                              [1000] * len(sizes),
                              [[models.THETA1_TRUE] * size for size in sizes])
        first = np.cumsum(sizes) - sizes
        for k, (size, start) in enumerate(zip(sizes, first)):
            lanes = np.arange(start, start + size)
            admissible = lanes[started[lanes]]
            assert fits["failed"][k] == (not admissible.size)
            assert fits["restarts"][k] == size - 1
            assert fits["evaluations"][k] == (lanes + 1).sum()
            if admissible.size:
                best = admissible[np.argmax(value[admissible])]
                assert fits["iterations"][k] == best
                assert fits["h_at_hat"][k] == value[best]
                assert np.array_equal(fits["theta_hat"][k], theta[best])
                assert np.all(fits["hessian"][k] == best)
        assert fits["failed"].sum() > 5 and (sizes == 0).sum() > 5

    def test_no_start_and_empty_stack(self, model1, quadvar_1e3):
        # A fit with no start is a failed row, its neighbours untouched,
        # with no start at all in the stack too; an empty stack gives
        # empty columns.
        fits = qmle.fit_lanes(model1, np.array([quadvar_1e3.q_xx] * 3),
                              [1000] * 3, [[models.THETA1_TRUE], [],
                                           [models.THETA1_TRUE]])
        assert fits["failed"].tolist() == [False, True, False]
        solo = qmle.fit_multistart(model1, quadvar_1e3, 1,
                                   init=models.THETA1_TRUE)
        for row in column_reports(model1, [1000] * 3, fits)[::2]:
            assert row.to_dict() == solo.to_dict()
        fits = qmle.fit_lanes(model1, np.array([quadvar_1e3.q_xx] * 2),
                              [1000] * 2, [[], []])
        assert fits["failed"].tolist() == [True, True]
        assert all(len(column) == 2 for column in fits.values())
        fits = qmle.fit_lanes(model1, np.zeros((0, 10, 10)), [], [])
        q = model1.q
        assert {c: v.shape for c, v in fits.items()} == {
            **dict.fromkeys(fits, (0,)), "theta_hat": (0, q),
            "hessian": (0, q, q)}


class TestFitOptions:
    """``compute_hessian=False`` only blanks the report's Hessian."""

    @pytest.mark.parametrize("run", [qmle.fit], ids=["fit"])
    def test_only_the_hessian_is_blanked(self, model1, quadvar_1e3, run):
        surface = LikelihoodSurface(model1, quadvar_1e3)
        full = run(surface)
        blank = run(surface, options=qmle.FitOptions(compute_hessian=False))
        assert np.all(np.isfinite(full.hessian))
        assert blank.hessian.shape == full.hessian.shape
        assert np.all(np.isnan(blank.hessian))
        assert blank.to_dict() == {**full.to_dict(), "hessian": None}

    @pytest.mark.parametrize("seed, digest", [
        (7, "b35b60428bcf736936eca0a313831672f22f944724a3a0ea1e7ec414adb4afa5"),
        (13000, "ab5acba55c7cb71223f5d01f72a3ced88b45ce7a88172ca46c1cc0fa2efca6cf"),
    ], ids=["7", "13000"])
    def test_limit_optimum_unchanged(self, model1, sigma0_oracle, seed, digest):
        # (theta_bar, value) as recorded while limit_optimum still asked
        # fit_multistart for no Hessian: the SHA-256 of theta_bar's bytes
        # and the value in hex.  Seed 13000 draws a long Latin-hypercube
        # start.
        theta, value = qmle.limit_optimum(model1, sigma0_oracle, starts=8,
                                          seed=seed)
        assert hashlib.sha256(theta.tobytes()).hexdigest() == digest
        assert value.hex() == "-0x1.167fd78cec506p+4"


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
    spec = structural_b2()
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
        jac = stacked_d1(spec, theta[lane]).reshape(spec.q, -1)
        assert scores.value[lane] == -0.5 * np.sum(r * r)
        grad = -jac @ r.ravel()
        assert np.abs(scores.grad[lane] - grad).max() < 1e-12 * np.abs(grad).max()
        gauss_newton = jac @ jac.T
        assert (np.abs(scores.information([lane])[0] - gauss_newton).max()
                < 1e-12 * np.abs(gauss_newton).max())
