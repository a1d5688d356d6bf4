import numpy as np
import pytest

from hfsem import diffsim, infocrit, models, qmle
from hfsem.errors import RankDeficientError
from hfsem.qlik import LikelihoodSurface, quad_var


def fake_report(h=-1000.0, q=22, n=100, hessian=None):
    """A report whose Hessian is ``-n I`` by default, so Gamma_tilde = I."""
    if hessian is None:
        hessian = -n * np.eye(q)
    return qmle.FitReport(
        model="fake", n=n, q=q, theta_hat=np.zeros(q), h_at_hat=h,
        grad_norm=0.0, hessian=hessian, iterations=1, evaluations=2,
        restarts=0, converged=True, boundary_hit=False)


@pytest.fixture(scope="module")
def fitted_rows(model1, model2, model3, sigma0_oracle):
    bundle = diffsim.simulate_true_model(1000, 1.0, seed=2718)
    qv = quad_var(bundle.x_obs, 1.0)
    rows, reports = [], []
    for spec, theta in [(model1, models.THETA1_TRUE),
                        (model2, models.THETA2_TRUE), (model3, None)]:
        if theta is None:
            theta, _ = qmle.limit_optimum(spec, sigma0_oracle, starts=4, seed=0)
        report = qmle.fit(LikelihoodSurface(spec, qv), init=theta)
        reports.append(report)
        rows.append(infocrit.criteria_row(report))
    return rows, reports


class TestCriteriaValues:
    def test_qbic1_arithmetic(self):
        row = infocrit.criteria_row(fake_report(h=-1000.0, q=22, n=100))
        assert abs(row.qbic1 - (2000 + 22 * np.log(100))) < 1e-10

    def test_qbic2_arithmetic(self):
        row = infocrit.criteria_row(fake_report(h=-1000.0, q=23, n=100))
        assert abs(row.qbic2 - (2000 + 23 * np.log(100))) < 1e-10

    def test_qaic_arithmetic(self):
        assert infocrit.criteria_row(fake_report(h=-1000.0, q=22)).qaic == 2044.0

    def test_equal_when_gate_fails(self):
        # -H/n = diag(1, ..., 1, -1) is indefinite, so the event J fails.
        hessian = -100.0 * np.diag([1.0] * 21 + [-1.0])
        row = infocrit.criteria_row(fake_report(hessian=hessian))
        assert not row.j_flag
        assert row.logdet_gamma_tilde == 0.0
        assert row.qbic1 == row.qbic2

    def test_nan_hessian_is_off_the_event(self):
        # A Hessian that was not computed (or read back as null) is NaN.
        report = fake_report(hessian=np.full((22, 22), np.nan))
        row = infocrit.criteria_row(report)
        assert not row.j_flag
        assert row.qbic1 == row.qbic2

    def test_identity_with_gate(self, fitted_rows):
        rows, reports = fitted_rows
        for row, report in zip(rows, reports):
            assert row.j_flag
            sign, logdet = np.linalg.slogdet(-report.hessian / report.n)
            assert sign > 0
            assert abs((row.qbic1 - row.qbic2) - logdet) < 1e-10
            assert row.logdet_gamma_tilde == pytest.approx(logdet, abs=1e-12)


class TestGammaZero:
    def test_scalar_reduction(self, scalar_model):
        s = 2.5  # the free variance; implied covariance diag(s, 1)
        out = infocrit.gamma_zero(scalar_model, [s], np.diag([s, 1.0]))
        assert out.gamma0.shape == (1, 1)
        assert abs(out.gamma0[0, 0] - 1.0 / (2.0 * s * s)) < 1e-12

    def test_model1_positive_definite(self, model1, sigma0_oracle):
        out = infocrit.gamma_zero(model1, models.THETA1_TRUE, sigma0_oracle)
        eig = np.linalg.eigvalsh(out.gamma0)
        assert eig.min() > 0
        assert out.delta0.shape == (55, 22)

    def test_model2_positive_definite(self, model2, sigma0_oracle):
        out = infocrit.gamma_zero(model2, models.THETA2_TRUE, sigma0_oracle)
        assert np.linalg.eigvalsh(out.gamma0).min() > 0

    def test_delta0_is_the_jacobian(self, model1, sigma0_oracle):
        out = infocrit.gamma_zero(model1, models.THETA1_TRUE, sigma0_oracle)
        assert np.array_equal(out.delta0, model1.jacobian(models.THETA1_TRUE))

    def test_rank_deficient_spec_rejected(self, degenerate_model):
        theta = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        sigma = degenerate_model.sigma(theta)
        with pytest.raises(RankDeficientError):
            infocrit.gamma_zero(degenerate_model, theta, sigma)

    def test_matches_scaled_hessian(self, model1, sigma0_oracle, quadvar_1e4):
        out = infocrit.gamma_zero(model1, models.THETA1_TRUE, sigma0_oracle)
        report = qmle.fit(LikelihoodSurface(model1, quadvar_1e4),
                          init=models.THETA1_TRUE)
        scaled = -report.hessian / quadvar_1e4.n
        rel = np.linalg.norm(scaled - out.gamma0) / np.linalg.norm(out.gamma0)
        assert rel < 0.15


class TestPosteriorProbs:
    def test_equal_criteria_equal_priors(self):
        rows = [infocrit.CriteriaRow("a", 5, 100, -1.0, 10.0, 10.0, 10.0, True, 0.0),
                infocrit.CriteriaRow("b", 6, 100, -1.0, 10.0, 10.0, 10.0, True, 0.0)]
        assert np.allclose(infocrit.posterior_probs(rows), [0.5, 0.5])

    def test_gap_gives_probability_ratio(self):
        gap = 2.0 * np.log(1e6)
        rows = [infocrit.CriteriaRow("a", 5, 100, -1.0, 0.0, 0.0, 0.0, True, 0.0),
                infocrit.CriteriaRow("b", 6, 100, -1.0, gap, gap, gap, True, 0.0)]
        probs = infocrit.posterior_probs(rows)
        assert probs[0] / probs[1] == pytest.approx(1e6, rel=1e-9)

    def test_sums_to_one_and_shift_invariant(self, fitted_rows):
        rows, _ = fitted_rows
        probs = infocrit.posterior_probs(rows)
        assert abs(probs.sum() - 1.0) < 1e-12
        shifted = [infocrit.CriteriaRow(r.model_id, r.q, r.n, r.h_at_hat,
                                        r.qbic1 + 1e4, r.qbic2 + 1e4,
                                        r.qaic + 1e4, r.j_flag,
                                        r.logdet_gamma_tilde) for r in rows]
        assert np.allclose(infocrit.posterior_probs(shifted), probs,
                           rtol=1e-10, atol=1e-12)

    def test_prior_validation(self, fitted_rows):
        rows, _ = fitted_rows
        with pytest.raises(ValueError):
            infocrit.posterior_probs(rows, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            infocrit.posterior_probs(rows, np.array([0.5, 0.5, -0.1]))
        with pytest.raises(ValueError):
            infocrit.posterior_probs(rows, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            infocrit.posterior_probs([])

    def test_true_model_dominates_posterior(self, fitted_rows):
        rows, _ = fitted_rows
        probs = infocrit.posterior_probs(rows, criterion="qbic2")
        assert rows[int(np.argmax(probs))].model_id == "model1"
        assert probs.max() > 0.9


class TestSelect:
    def test_single_model(self):
        row = infocrit.CriteriaRow("only", 3, 10, -1.0, 1.0, 1.0, 1.0, True, 0.0)
        assert infocrit.select([row]) == "only"

    def test_tie_prefers_fewer_parameters(self):
        rows = [infocrit.CriteriaRow("big", 23, 10, -1.0, 5.0, 5.0, 5.0, True, 0.0),
                infocrit.CriteriaRow("small", 22, 10, -1.0, 5.0, 5.0, 5.0, True, 0.0)]
        assert infocrit.select(rows) == "small"

    def test_tie_on_q_prefers_lower_id(self):
        rows = [infocrit.CriteriaRow("z", 5, 10, -1.0, 5.0, 5.0, 5.0, True, 0.0),
                infocrit.CriteriaRow("a", 5, 10, -1.0, 5.0, 5.0, 5.0, True, 0.0)]
        assert infocrit.select(rows) == "a"

    def test_selects_true_model_on_data(self, fitted_rows):
        rows, _ = fitted_rows
        for criterion in infocrit.CRITERIA:
            assert infocrit.select(rows, criterion) in ("model1", "model2")

    def test_unknown_criterion(self, fitted_rows):
        rows, _ = fitted_rows
        with pytest.raises(ValueError):
            infocrit.select(rows, "bic")
