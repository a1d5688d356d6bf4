"""Information criteria, posterior model probabilities, and selection.

The two quasi-Bayesian criteria come from the Laplace-type expansion of the
marginal quasi-likelihood:

    qbic1 = -2 loglik + log det(n * Gamma_tilde)
    qbic2 = -2 loglik + q log n

with ``Gamma_tilde`` the negative scaled Hessian ``-H/n`` at the maximizer
on the event J that it is positive definite and the identity off it, so
the two criteria coincide exactly off J.  The quasi-Akaike criterion
``-2 loglik + 2q`` is included for comparison; it lacks selection
consistency.

``CRITERIA`` names the criteria, in the order of every table that lists
them.  J and ``log det Gamma_tilde`` are computed here alone, from the
Hessian a ``FitReport`` keeps: J holds when the smallest eigenvalue of
``-H/n`` is above ``_JGATE_MIN_EIG``, and a non-finite Hessian is off J.

``gamma_zero`` builds the analytic information matrix, which the negative
scaled Hessian approaches as the grid refines, from the spec's factor
record, as the estimator's scoring steps build the Fisher information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import matkit
from .errors import NotPositiveDefiniteError, RankDeficientError
from .qmle import FitReport
from .semspec import SemSpec, jacobian_rank

__all__ = [
    "CriteriaRow",
    "GammaZero",
    "criteria_row",
    "gamma_zero",
    "posterior_probs",
    "select",
]

CRITERIA = ("qbic1", "qbic2", "qaic")
_JGATE_MIN_EIG = 1e-10


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


def _gate(fit: FitReport) -> tuple[bool, float]:
    """Whether the event J holds for ``fit``, and ``log det Gamma_tilde``:
    that of ``-H/n`` on J, 0 (the identity's) off it.  A fit with no free
    parameter has an empty ``-H/n``: J holds vacuously, with log det 0."""
    scaled = -fit.hessian / fit.n
    if not (np.all(np.isfinite(scaled))
            and np.all(np.linalg.eigvalsh(scaled) > _JGATE_MIN_EIG)):
        return False, 0.0
    sign, logdet = np.linalg.slogdet(scaled)
    if sign <= 0:
        raise NotPositiveDefiniteError(
            "-H/n is not positive definite despite the gate")
    return True, float(logdet)


def criteria_row(fit: FitReport) -> CriteriaRow:
    """The criteria of one fit, computed here alone."""
    j_flag, logdet = _gate(fit)
    # qbic1 is qbic2 plus the log-determinant, so the identity between the
    # two criteria holds to rounding, not just in exact arithmetic.
    base = -2.0 * fit.h_at_hat + fit.q * np.log(fit.n)
    return CriteriaRow(model_id=fit.model, q=fit.q, n=fit.n,
                       h_at_hat=fit.h_at_hat, qbic1=base + logdet,
                       qbic2=base, qaic=-2.0 * fit.h_at_hat + 2.0 * fit.q,
                       j_flag=j_flag, logdet_gamma_tilde=logdet)


@dataclass
class GammaZero:
    """Analytic asymptotic information at a parameter point."""
    gamma0: np.ndarray   # q x q
    delta0: np.ndarray   # pbar x q


def gamma_zero(spec: SemSpec, theta0: np.ndarray,
               sigma0: np.ndarray) -> GammaZero:
    """Information matrix ``gamma0 = tr(S Sigma_i S Sigma_j) / 2`` at
    ``theta0`` with ``S = inv(sigma0)``, or ``delta0' W delta0`` with
    ``delta0`` the vech covariance Jacobian and ``W = D' (S kron S) D / 2``,
    both from the factor record of one forward pass.

    Raises :class:`RankDeficientError` when the covariance Jacobian loses
    column rank, :class:`NotPositiveDefiniteError` when sigma0 is not PD,
    and ``ValueError`` when it is not (p, p).
    """
    spec.check_covariation(sigma0, "sigma0")
    _, sigma0_inv = matkit.chol_logdet(sigma0)
    delta0, rank, record = jacobian_rank(spec, theta0)
    if rank < spec.q:
        raise RankDeficientError(
            f"covariance Jacobian of {spec.name!r} has rank {rank} < q={spec.q}")
    info = 0.5 * record.trace_products([0], sigma0_inv, sigma0_inv)[0]
    return GammaZero(gamma0=0.5 * (info + info.T), delta0=delta0)


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
    if not np.all(priors > 0.0):
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
