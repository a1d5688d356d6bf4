"""Information criteria, posterior model probabilities, and selection.

The two quasi-Bayesian criteria come from the Laplace-type expansion of the
marginal quasi-likelihood:

    qbic1 = -2 loglik + log det(n * Gamma_tilde)
    qbic2 = -2 loglik + q log n

with ``Gamma_tilde`` the negative scaled Hessian at the maximizer on the
event that it is positive definite and the identity off it, so the two
criteria coincide exactly when the gate fails.  The quasi-Akaike criterion
``-2 loglik + 2q`` is included for comparison; it lacks selection
consistency.

``gamma_zero`` builds the analytic information matrix from the covariance
Jacobian and the fourth-moment weight of the limiting increment law, which
the negative scaled Hessian approaches as the grid refines.  It is the
same Fisher information that drives the estimator's scoring steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import matkit
from .errors import NotPositiveDefiniteError, RankDeficientError
from .qlik import fisher_information
from .qmle import FitReport
from .semspec import SemSpec

__all__ = [
    "CriteriaRow",
    "GammaZero",
    "qbic1",
    "qbic2",
    "qaic",
    "criteria_row",
    "gamma_zero",
    "posterior_probs",
    "select",
]

CRITERIA = ("qbic1", "qbic2", "qaic")


@dataclass
class CriteriaRow:
    """Per-model criteria values for one fitted dataset."""
    model_id: str
    q: int
    n: int
    h_at_hat: float
    qbic1: float
    qbic2: float
    qaic: float
    j_flag: bool
    logdet_gamma_tilde: float

    def value(self, criterion: str) -> float:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        return getattr(self, criterion)


def _logdet_gamma_tilde(fit: FitReport) -> float:
    if not fit.j_flag:
        return 0.0
    sign, logdet = np.linalg.slogdet(fit.gamma_tilde)
    if sign <= 0:
        raise NotPositiveDefiniteError(
            "gamma_tilde is not positive definite despite the gate")
    return float(logdet)


def qbic2(fit: FitReport) -> float:
    return -2.0 * fit.h_at_hat + fit.q * np.log(fit.n)


def qbic1(fit: FitReport) -> float:
    # Written as qbic2 + logdet so the identity between the two criteria
    # holds to rounding, not just in exact arithmetic.
    return qbic2(fit) + _logdet_gamma_tilde(fit)


def qaic(fit: FitReport) -> float:
    return -2.0 * fit.h_at_hat + 2.0 * fit.q


def criteria_row(fit: FitReport) -> CriteriaRow:
    logdet = _logdet_gamma_tilde(fit)
    base = qbic2(fit)
    return CriteriaRow(model_id=fit.model, q=fit.q, n=fit.n,
                       h_at_hat=fit.h_at_hat, qbic1=base + logdet,
                       qbic2=base, qaic=qaic(fit), j_flag=fit.j_flag,
                       logdet_gamma_tilde=logdet)


@dataclass
class GammaZero:
    """Analytic asymptotic information at a parameter point."""
    gamma0: np.ndarray   # q x q
    w0: np.ndarray       # pbar x pbar, asymptotic covariance of vech(Q)
    delta0: np.ndarray   # pbar x q


def gamma_zero(spec: SemSpec, theta0: np.ndarray, sigma0: np.ndarray,
               rank_rtol: float = 1e-8) -> GammaZero:
    """Information matrix ``delta' inv(w0) delta`` at ``theta0``.

    ``w0 = 2 Dplus (sigma0 kron sigma0) Dplus'``, ``Dplus`` the pseudoinverse
    of the duplication matrix, inverts the weight of ``gamma0``'s source,
    :func:`~hfsem.qlik.fisher_information`.  Raises
    :class:`RankDeficientError` when the covariance Jacobian loses column
    rank, :class:`NotPositiveDefiniteError` when sigma0 is not PD.
    """
    sigma0 = matkit.check_symmetric(np.asarray(sigma0, dtype=float))
    d_sigma = spec.forward(theta0, 1)[1]
    rows, cols = matkit.vech_indices(spec.p)
    delta0 = d_sigma[:, rows, cols].T
    rank = matkit.numeric_rank(delta0, rank_rtol)
    if rank < spec.q:
        raise RankDeficientError(
            f"covariance Jacobian of {spec.name!r} has rank {rank} < q={spec.q}")
    _, sigma0_inv = matkit.chol_logdet(sigma0)
    dplus = matkit.pinv(matkit.duplication_matrix(spec.p))
    w0 = 2.0 * dplus @ np.kron(sigma0, sigma0) @ dplus.T
    return GammaZero(gamma0=fisher_information(d_sigma, sigma0_inv),
                     w0=0.5 * (w0 + w0.T), delta0=delta0)


def posterior_probs(rows: Sequence[CriteriaRow],
                    priors: Optional[np.ndarray] = None,
                    criterion: str = "qbic2") -> np.ndarray:
    """Posterior model probabilities from criteria values.

    Uses ``exp(-criterion/2)`` as the marginal-likelihood proxy, weighted
    by the model priors (equal by default).  Computed with max-subtraction;
    the result sums to one and is invariant to shifting every criterion by
    a constant.
    """
    if not rows:
        raise ValueError("need at least one model")
    vals = np.array([row.value(criterion) for row in rows], dtype=float)
    if priors is None:
        priors = np.full(len(rows), 1.0 / len(rows))
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (len(rows),):
        raise ValueError("priors must have one entry per model")
    if np.any(priors <= 0.0):
        raise ValueError("priors must be positive")
    if abs(priors.sum() - 1.0) > 1e-8:
        raise ValueError("priors must sum to one")
    logw = np.log(priors) - 0.5 * vals
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def select(rows: Sequence[CriteriaRow], criterion: str = "qbic2") -> str:
    """Model id minimizing the criterion; ties prefer fewer parameters,
    then the lexicographically smaller id."""
    if not rows:
        raise ValueError("need at least one model")
    best = min(rows, key=lambda r: (r.value(criterion), r.q, r.model_id))
    return best.model_id
