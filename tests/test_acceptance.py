"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy Monte Carlo artifacts (the 200-replication selection study, the
50-replication spot check, the convergence-rate study, and the
misspecification gap probe) are module-scoped fixtures shared across
criteria.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines as they complete.
"""

import numpy as np
import pytest

from hfsem import diffsim, harness, infocrit, matkit, models, qmle
from hfsem.qlik import LikelihoodSurface, quad_var
from hfsem.qmle import check_identifiability
from hfsem.semspec import nested_embedding
from tests.conftest import interior_theta

MASTER_SEED = 20240811
MODEL_PATHS = ["model1", "model2", "model3"]


def announce(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_study():
    """200 replications at n in {100, 1000}, true-value init protocol."""
    config = harness.ExperimentConfig(
        n_values=[100, 1000], T=1.0, replications=200,
        master_seed=MASTER_SEED, model_spec_paths=MODEL_PATHS)
    return harness.run_experiment(config)[0]


@pytest.fixture(scope="module")
def spot_check_1e4():
    """50-replication spot check at n = 10^4."""
    config = harness.ExperimentConfig(
        n_values=[10_000], T=1.0, replications=50,
        master_seed=MASTER_SEED, model_spec_paths=MODEL_PATHS)
    return harness.run_experiment(config)[0]


@pytest.fixture(scope="module")
def rate_study(model1):
    """Median estimation error of model1 over 50 replications per grid."""
    opts = qmle.FitOptions(compute_hessian=False)
    medians = {}
    for n in (1000, 10_000, 100_000):
        errs = []
        for rep in range(50):
            seed = harness.split_seed(MASTER_SEED + 1, n, rep)
            bundle = diffsim.simulate_true_model(n, 1.0, seed=seed,
                                                 keep_latents=False)
            surface = LikelihoodSurface(model1, quad_var(bundle.x_obs, 1.0))
            report = qmle.fit(surface, init=models.THETA1_TRUE, options=opts)
            errs.append(np.linalg.norm(report.theta_hat - models.THETA1_TRUE))
        medians[n] = float(np.median(errs))
    return medians


@pytest.fixture(scope="module")
def truth_fit_1e5(model1, quadvar_1e5):
    return qmle.fit(LikelihoodSurface(model1, quadvar_1e5),
                    init=models.THETA1_TRUE)


def test_criterion_1_table_reproduction(desk_study, spot_check_1e4):
    t = desk_study
    share_qbic2 = t.share("qbic2", 1000, "model1")
    share_qbic1 = t.share("qbic1", 1000, "model1")
    share_qaic_m2 = t.share("qaic", 1000, "model2")
    model3_total = sum(
        tab.counts[(criterion, n)]["model3"]
        for tab in (t, spot_check_1e4)
        for criterion in tab.criteria for n in tab.n_values)
    ok = (share_qbic2 >= 0.95 and share_qbic1 >= 0.94
          and 0.08 <= share_qaic_m2 <= 0.25 and model3_total == 0
          and sum(t.failures.values()) == 0)
    announce(1, ok,
             f"n=1000 shares: qbic2={share_qbic2:.3f} (>=0.95), "
             f"qbic1={share_qbic1:.3f} (>=0.94), qaic model2="
             f"{share_qaic_m2:.3f} (in [0.08, 0.25]); model3 selections="
             f"{model3_total}; failures={sum(t.failures.values())}")


def test_criterion_2_monotone_consistency(desk_study, spot_check_1e4):
    shares = [desk_study.share("qbic2", 100, "model1"),
              desk_study.share("qbic2", 1000, "model1"),
              spot_check_1e4.share("qbic2", 10_000, "model1")]
    ok = shares[1] >= shares[0] - 0.02 and shares[2] >= shares[1] - 0.02
    announce(2, ok,
             "model1 share under qbic2 across n=100/1000/10000: "
             + " -> ".join(f"{s:.3f}" for s in shares)
             + " (non-decreasing within 0.02)")


def test_criterion_3_quadratic_covariation(quadvar_1e5, sigma0_oracle):
    rel = (np.linalg.norm(quadvar_1e5.q_xx - sigma0_oracle)
           / np.linalg.norm(sigma0_oracle))
    announce(3, rel < 0.05,
             f"single path n=1e5: relative Frobenius error {rel:.4f} (<0.05)")


def test_criterion_4_estimator_rate(rate_study):
    ns = np.array(sorted(rate_study))
    meds = np.array([rate_study[n] for n in ns])
    slope = np.polyfit(np.log(ns), np.log(meds), 1)[0]
    ok = -0.65 <= slope <= -0.35
    announce(4, ok,
             f"median error at n={list(ns)}: "
             + ", ".join(f"{m:.4f}" for m in meds)
             + f"; log-log slope {slope:.3f} (in [-0.65, -0.35])")


def test_criterion_5_hessian_information_agreement(truth_fit_1e5, model1,
                                                   sigma0_oracle):
    gamma0 = infocrit.gamma_zero(model1, models.THETA1_TRUE,
                                 sigma0_oracle).gamma0
    scaled = -truth_fit_1e5.hessian / truth_fit_1e5.n
    rel = np.linalg.norm(scaled - gamma0) / np.linalg.norm(gamma0)
    announce(5, rel < 0.15,
             f"n=1e5: |(-H/n) - Gamma0|_F / |Gamma0|_F = {rel:.4f} (<0.15)")


def test_criterion_6_identity_suite(model1, model2, quadvar_1e4):
    # criteria identity at the fitted point
    worst_gap = 0.0
    for spec, theta in [(model1, models.THETA1_TRUE),
                        (model2, models.THETA2_TRUE)]:
        report = qmle.fit(LikelihoodSurface(spec, quadvar_1e4), init=theta)
        assert report.j_flag
        row = infocrit.criteria_row(report)
        logdet = np.linalg.slogdet(report.gamma_tilde)[1]
        worst_gap = max(worst_gap, abs((row.qbic1 - row.qbic2) - logdet))
    gated_off = infocrit.criteria_row(
        qmle.FitReport(model="off", n=100, q=3, theta_hat=np.zeros(3),
                       h_at_hat=-10.0, grad_norm=0.0,
                       hessian=np.full((3, 3), np.nan), j_flag=False,
                       gamma_tilde=np.eye(3), iterations=1, evaluations=2,
                       restarts=0, converged=True, boundary_hit=False))
    identity_off = gated_off.qbic1 == gated_off.qbic2

    # duplication identity on 100 random symmetric matrices
    rng = np.random.default_rng(6)
    dup_ok = True
    for _ in range(100):
        p = int(rng.integers(1, 13))
        a = rng.standard_normal((p, p))
        a = a + a.T
        d = matkit.duplication_matrix(p)
        dup_ok &= bool(np.array_equal(d @ matkit.vech(a), a.flatten(order="F")))

    # nested-model likelihood identity on one simulated dataset
    f, c = nested_embedding(model1, model2)
    s1 = LikelihoodSurface(model1, quadvar_1e4)
    s2 = LikelihoodSurface(model2, quadvar_1e4)
    nest_gap = 0.0
    for _ in range(20):
        theta = interior_theta(model1, rng, around=models.THETA1_TRUE)
        nest_gap = max(nest_gap, abs(s1.value(theta) - s2.value(f @ theta + c)))

    ok = worst_gap < 1e-10 and identity_off and dup_ok and nest_gap <= 1e-10
    announce(6, ok,
             f"qbic identity gap {worst_gap:.2e} (<1e-10); gate-off equality "
             f"{identity_off}; duplication identity on 100 draws {dup_ok}; "
             f"nested loglik gap {nest_gap:.2e} (<=1e-10)")


def test_criterion_7_gradient_oracle(model1, model2, model3, quadvar_1e4):
    rng = np.random.default_rng(7)
    worst = 0.0
    for spec, base in [(model1, models.THETA1_TRUE),
                       (model2, models.THETA2_TRUE), (model3, None)]:
        surface = LikelihoodSurface(spec, quadvar_1e4)
        for _ in range(20):
            theta = interior_theta(spec, rng, around=base)
            grad = surface.grad(theta)
            fd = np.empty_like(grad)
            for j in range(spec.q):
                h = 1e-3 * (1.0 + abs(theta[j]))
                vals = []
                for shift in (2 * h, h, -h, -2 * h):
                    t = theta.copy()
                    t[j] += shift
                    vals.append(surface.value(t))
                fd[j] = (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12 * h)
            rel = np.abs(grad - fd).max() / (1.0 + np.abs(grad).max())
            worst = max(worst, rel)
    announce(7, worst < 1e-6,
             f"5-point central-difference check, 20 points per model: "
             f"worst relative error {worst:.2e} (<1e-6)")


def test_criterion_8_identifiability(model1, model2):
    d1 = matkit.numeric_rank(model1.jacobian(models.THETA1_TRUE))
    d2 = matkit.numeric_rank(model2.jacobian(models.THETA2_TRUE))
    rep1 = check_identifiability(model1, models.THETA1_TRUE, trials=50, seed=8)
    rep2 = check_identifiability(model2, models.THETA2_TRUE, trials=50, seed=8)
    ok = (d1 == 22 and d2 == 23 and rep1.passed and rep2.passed)
    announce(8, ok,
             f"rank(model1)={d1} (=22), rank(model2)={d2} (=23); "
             f"injectivity probes: model1 {rep1.preimages_found} preimages/"
             f"{rep1.trials} trials, 0 witnesses={not rep1.witnesses}; "
             f"model2 {rep2.preimages_found} preimages, "
             f"0 witnesses={not rep2.witnesses}")


def test_criterion_9_misspecification_gap():
    config = harness.ExperimentConfig(
        n_values=[10_000], T=1.0, replications=50,
        master_seed=MASTER_SEED + 2, model_spec_paths=MODEL_PATHS)
    probe = harness.gap_growth_probe(config, "model1", "model3",
                                     criterion="qbic1")
    announce(9, probe.relative_error < 0.15,
             f"per-observation criterion gap {probe.level:.4f} vs analytic "
             f"{probe.analytic_level:.4f}; relative error "
             f"{probe.relative_error:.4f} (<0.15)")
