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
Hessians the fits keep: J holds when the smallest eigenvalue of ``-H/n``
is above ``_JGATE_MIN_EIG``, and a non-finite Hessian is off J.
:func:`criteria_columns` computes them for a stack of fits of one spec,
as columns, and :func:`winners` selects each row's model among columns;
:func:`criteria_row` and :func:`select` are their one-row cases, for one
dataset's fits.

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
    "criteria_columns",
    "criteria_row",
    "gamma_zero",
    "posterior_probs",
    "select",
    "winners",
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


def criteria_columns(h_at_hat: np.ndarray, hessian: np.ndarray,
                     n: np.ndarray) -> dict:
    """The criteria of R fits of one spec, computed here alone, from their
    (R,) maximized log-likelihoods ``h_at_hat``, (R, q, q) Hessians and
    (R,) grid sizes ``n``: one (R,) column each of ``CRITERIA``,
    ``j_flag`` and ``logdet_gamma_tilde``.

    J holds where ``-H/n`` is finite with every eigenvalue above
    ``_JGATE_MIN_EIG``; ``Gamma_tilde`` is ``-H/n`` there and the identity
    elsewhere, so its log-determinant is 0 off J.  With no free parameter
    (q = 0) ``-H/n`` is empty: J holds vacuously, with log det 0.  One
    ``eigvalsh`` and one ``slogdet`` over the stack give each row the bits
    of its own call."""
    q = hessian.shape[-1]
    gamma = -hessian / n[:, None, None]
    finite = np.isfinite(gamma).all(axis=(1, 2))
    gamma[~finite] = np.eye(q)
    j_flag = finite & (np.linalg.eigvalsh(gamma) > _JGATE_MIN_EIG).all(axis=1)
    gamma[~j_flag] = np.eye(q)           # now Gamma_tilde
    sign, logdet = np.linalg.slogdet(gamma)
    if np.any(sign <= 0):
        raise NotPositiveDefiniteError(
            "-H/n is not positive definite despite the gate")
    # qbic1 is qbic2 plus the log-determinant, so the identity between the
    # two criteria holds to rounding, not just in exact arithmetic.
    base = -2.0 * h_at_hat + q * np.log(n)
    return {"qbic1": base + logdet, "qbic2": base,
            "qaic": -2.0 * h_at_hat + 2.0 * q,
            "j_flag": j_flag, "logdet_gamma_tilde": logdet}


def criteria_row(fit: FitReport) -> CriteriaRow:
    """The criteria of one fit: the one-row case of
    :func:`criteria_columns`."""
    columns = criteria_columns(np.array([fit.h_at_hat]), fit.hessian[None],
                               np.array([fit.n]))
    return CriteriaRow(fit.model, fit.q, fit.n, fit.h_at_hat,
                       **{key: column.item() for key, column in columns.items()})


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


def winners(values: np.ndarray, q: Sequence, model_ids: Sequence) -> np.ndarray:
    """The index of each row's winner among the models on the last axis of
    ``values``, each with its parameter count ``q`` and its id: the lowest
    value, ties going to fewer parameters, then to the smaller id."""
    order = np.lexsort((np.asarray(model_ids, dtype=str), q))
    return order[np.argmin(np.asarray(values)[..., order], axis=-1)]


def select(rows: Sequence[CriteriaRow], criterion: str = "qbic2") -> str:
    """Model id minimizing the criterion: the one-row case of
    :func:`winners`."""
    if not rows:
        raise ValueError("need at least one model")
    won = winners([row.value(criterion) for row in rows],
                  [row.q for row in rows], [row.model_id for row in rows])
    return rows[won].model_id
