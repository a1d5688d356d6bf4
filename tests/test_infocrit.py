import itertools

import numpy as np
import pytest

from hfsem import diffsim, infocrit, models, qmle
from hfsem.errors import NotPositiveDefiniteError, RankDeficientError
from hfsem.qlik import quad_var
from tests.conftest import all_fixed_spec


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
        report = qmle.fit_multistart(spec, qv, 1, init=theta)
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

    def test_no_free_parameter(self, model1, quadvar_1e4):
        # For q = 0, -H/n is empty: J holds vacuously with log det 0, and
        # every criterion is -2 loglik.
        spec = all_fixed_spec(model1, models.THETA1_TRUE, "fixed1")
        report = qmle.fit_multistart(spec, quadvar_1e4, 1)
        assert report.hessian.shape == (0, 0) and report.converged
        row = infocrit.criteria_row(report)
        assert row.j_flag and row.logdet_gamma_tilde == 0.0
        assert row.qbic1 == row.qbic2 == row.qaic == -2.0 * report.h_at_hat

    def test_identity_with_gate(self, fitted_rows):
        rows, reports = fitted_rows
        for row, report in zip(rows, reports):
            assert row.j_flag
            sign, logdet = np.linalg.slogdet(-report.hessian / report.n)
            assert sign > 0
            assert abs((row.qbic1 - row.qbic2) - logdet) < 1e-10
            assert row.logdet_gamma_tilde == pytest.approx(logdet, abs=1e-12)


def gate_oracle(hessian, n):
    """J and log det Gamma_tilde of one fit by its own ``eigvalsh`` and
    ``slogdet`` calls, as they were computed one fit at a time."""
    scaled = -hessian / n
    if not (np.all(np.isfinite(scaled))
            and np.all(np.linalg.eigvalsh(scaled) > infocrit._JGATE_MIN_EIG)):
        return False, 0.0
    return True, float(np.linalg.slogdet(scaled)[1])


def hessian_with_smallest(smallest, q=5, n=100, seed=0):
    """A Hessian whose ``-H/n`` has the eigenvalues ``smallest`` and
    1, ..., 2 in a random orthonormal basis."""
    basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((q, q)))
    eig = np.concatenate([[smallest], np.linspace(1.0, 2.0, q - 1)])
    return -n * (basis * eig) @ basis.T


class TestCriteriaColumns:
    """The stacked pass against the one-fit view and the per-fit oracle."""

    def assert_rows_match(self, h_at_hat, hessians, n):
        columns = infocrit.criteria_columns(h_at_hat, hessians, n)
        q = hessians.shape[-1]
        for k in range(len(n)):
            report = fake_report(h=h_at_hat[k], q=q, n=int(n[k]),
                                 hessian=hessians[k])
            row = infocrit.criteria_row(report)
            assert row == infocrit.CriteriaRow(
                "fake", q, int(n[k]), h_at_hat[k],
                **{key: column[k].item() for key, column in columns.items()})
            j_flag, logdet = gate_oracle(hessians[k], n[k])
            base = -2.0 * h_at_hat[k] + q * np.log(int(n[k]))
            assert (row.j_flag, row.logdet_gamma_tilde) == (j_flag, logdet)
            assert (row.qbic1, row.qbic2) == (base + logdet, base)
            assert row.qaic == -2.0 * h_at_hat[k] + 2.0 * q
        return columns

    def test_rows_are_the_one_fit_view(self):
        gate = infocrit._JGATE_MIN_EIG
        n = np.array([100, 1000, 100, 250, 250, 100, 400])
        hessians = np.array([
            hessian_with_smallest(0.5, n=100),                    # on J
            np.full((5, 5), np.nan),                              # not computed
            -100.0 * np.diag([1.0, 1.0, 1.0, 1.0, -1.0]),         # indefinite
            hessian_with_smallest(1.01 * gate, n=250, seed=1),    # just above
            hessian_with_smallest(0.99 * gate, n=250, seed=1),    # just below
            np.full((5, 5), -np.inf),
            hessian_with_smallest(3.0, n=400, seed=2)])           # on J
        h_at_hat = np.random.default_rng(4).uniform(-2000.0, 2000.0, len(n))
        columns = self.assert_rows_match(h_at_hat, hessians, n)
        assert columns["j_flag"].tolist() == [True, False, False, True, False,
                                              False, True]
        off = ~columns["j_flag"]
        assert np.array_equal(columns["qbic1"][off], columns["qbic2"][off])

    def test_no_free_parameter(self):
        n = np.array([100, 1000, 10])
        columns = self.assert_rows_match(np.array([-5.0, 7.0, 0.25]),
                                         np.zeros((3, 0, 0)), n)
        assert columns["j_flag"].all()
        assert not columns["logdet_gamma_tilde"].any()

    def test_one_eigvalsh_and_one_slogdet(self, monkeypatch):
        calls = []

        def spy(name):
            original = getattr(np.linalg, name)
            return lambda a: calls.append((name, np.shape(a))) or original(a)

        for name in ("eigvalsh", "slogdet"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        hessians = np.array([hessian_with_smallest(1.0, seed=k) for k in range(6)])
        infocrit.criteria_columns(np.zeros(6), hessians, np.full(6, 100))
        assert calls == [("eigvalsh", (6, 5, 5)), ("slogdet", (6, 5, 5))]

    def test_despite_the_gate(self, monkeypatch):
        # The gate and the log-determinant are two calls; a sign that
        # disagrees with the gate is raised, not written as a criterion.
        slogdet = np.linalg.slogdet
        monkeypatch.setattr(np.linalg, "slogdet", lambda a: (
            -slogdet(a)[0], slogdet(a)[1]))
        hessians = np.array([hessian_with_smallest(1.0)])
        with pytest.raises(NotPositiveDefiniteError, match="despite the gate"):
            infocrit.criteria_columns(np.zeros(1), hessians, np.array([100]))


def oracle_winner(values, q, model_ids):
    """The winner by ``min`` over (value, q, id), one row at a time."""
    return min(range(len(model_ids)),
               key=lambda m: (values[m], q[m], model_ids[m]))


class TestWinners:
    # Given out of sort order: "a10" < "a9" < "b" < "m2".
    IDS = ["m2", "b", "a10", "a9"]

    @pytest.mark.parametrize("q", [[5, 3, 5, 3], [3, 3, 3, 3], [4, 3, 2, 1]],
                             ids=["pairs", "equal", "descending"])
    def test_matches_min_oracle(self, q):
        # Every pattern of two values over four models: ties in value, and
        # ties in (value, q) where q repeats.
        values = np.array(list(itertools.product([1.0, 2.0], repeat=4)))
        got = infocrit.winners(values, q, self.IDS)
        assert got.tolist() == [oracle_winner(v, q, self.IDS) for v in values]
        for v, won in zip(values, got):
            rows = [infocrit.CriteriaRow(m, k, 10, -1.0, x, x, x, True, 0.0)
                    for m, k, x in zip(self.IDS, q, v)]
            assert infocrit.select(rows) == self.IDS[won]

    def test_ties_named(self):
        q = [5, 3, 5, 3]
        assert self.IDS[infocrit.winners([1.0, 1.0, 1.0, 2.0], q, self.IDS)] == "b"
        assert self.IDS[infocrit.winners([1.0, 2.0, 1.0, 2.0], q, self.IDS)] == "a10"
        assert self.IDS[infocrit.winners([2.0, 1.0, 2.0, 1.0], q, self.IDS)] == "a9"

    def test_stack_of_criteria(self):
        # A chunk's (tasks, criteria, models) stack: each row on its own.
        rng = np.random.default_rng(8)
        values = rng.choice([0.0, 1.0, 2.0], size=(40, 3, 4))
        q = [5, 3, 5, 3]
        got = infocrit.winners(values, q, self.IDS)
        assert got.shape == (40, 3)
        assert got.tolist() == [[oracle_winner(v, q, self.IDS) for v in task]
                                for task in values]


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

    @pytest.mark.parametrize("shape", [(4, 4), (12, 12), (10, 3)])
    def test_sigma0_shape_checked(self, model1, shape):
        # Named as moment_start names a Q of the wrong shape, before the
        # factor record meets it.
        message = (rf"^sigma0 is \({shape[0]}, {shape[1]}\), "
                   rf"model observes p=10$")
        with pytest.raises(ValueError, match=message):
            infocrit.gamma_zero(model1, models.THETA1_TRUE, np.eye(*shape))

    def test_matches_scaled_hessian(self, model1, sigma0_oracle, quadvar_1e4):
        out = infocrit.gamma_zero(model1, models.THETA1_TRUE, sigma0_oracle)
        report = qmle.fit_multistart(model1, quadvar_1e4, 1,
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

    def test_no_rows(self):
        with pytest.raises(ValueError, match="^need at least one model$"):
            infocrit.select([])
