"""Quasi-maximum-likelihood estimation over the parameter box.

Maximization runs L-BFGS-B on internally transformed coordinates: variance
parameters are optimized on the log scale so line searches cannot leave the
positive-definite region, and the box is enforced on the raw scale after
back-transform.  Points where the implied covariance cannot be factorized
are treated as an infinite objective, never a crash.

``fit`` performs a single start, ``fit_multistart`` adds Latin-hypercube
starts and keeps the best run, and ``limit_optimum`` maximizes the in-fill
limit criterion with the same machinery.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.optimize
from scipy.stats import qmc

from .errors import (AllStartsFailedError, NotPositiveDefiniteError,
                     SingularStructureError)
from .qlik import LikelihoodSurface, QuadVar
from .semspec import SemSpec

__all__ = [
    "FitOptions",
    "FitReport",
    "fit",
    "fit_multistart",
    "limit_optimum",
    "moment_start",
]

logger = logging.getLogger(__name__)

_JGATE_MIN_EIG = 1e-10
_MAX_ITER = 500
_GRAD_TOL = 1e-6          # converged: |grad|_inf < _GRAD_TOL*(1+|loglik|)
_BOUNDARY_TOL = 1e-8      # absolute distance that counts as "on the bound"


@dataclass
class FitOptions:
    compute_hessian: bool = True


@dataclass
class FitReport:
    """Everything the information criteria need about one maximization."""
    model: str
    n: int
    q: int
    theta_hat: np.ndarray
    h_at_hat: float
    grad_norm: float
    hessian: np.ndarray
    j_flag: bool
    gamma_tilde: np.ndarray
    iterations: int
    restarts: int
    converged: bool
    boundary_hit: bool

    def to_dict(self) -> dict:
        hess = None if not np.all(np.isfinite(self.hessian)) \
            else self.hessian.tolist()
        return {
            "model": self.model,
            "n": self.n,
            "q": self.q,
            "theta_hat": self.theta_hat.tolist(),
            "h_at_hat": self.h_at_hat,
            "grad_norm": self.grad_norm,
            "hessian": hess,
            "j_flag": self.j_flag,
            "gamma_tilde": self.gamma_tilde.tolist(),
            "iterations": self.iterations,
            "restarts": self.restarts,
            "converged": self.converged,
            "boundary_hit": self.boundary_hit,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FitReport":
        q = int(doc["q"])
        hess = doc.get("hessian")
        hessian = np.full((q, q), np.nan) if hess is None else np.asarray(hess)
        return cls(model=doc["model"], n=int(doc["n"]), q=q,
                   theta_hat=np.asarray(doc["theta_hat"], dtype=float),
                   h_at_hat=float(doc["h_at_hat"]),
                   grad_norm=float(doc["grad_norm"]),
                   hessian=hessian, j_flag=bool(doc["j_flag"]),
                   gamma_tilde=np.asarray(doc["gamma_tilde"], dtype=float),
                   iterations=int(doc["iterations"]),
                   restarts=int(doc["restarts"]),
                   converged=bool(doc["converged"]),
                   boundary_hit=bool(doc["boundary_hit"]))


class _BoxTransform:
    """Log-scale for positive parameters, identity elsewhere."""

    def __init__(self, spec: SemSpec):
        self.spec = spec
        self.mask = spec.positive_mask
        self.lower_u = spec.lower.copy()
        self.upper_u = spec.upper.copy()
        self.lower_u[self.mask] = np.log(spec.lower[self.mask])
        self.upper_u[self.mask] = np.log(spec.upper[self.mask])

    def to_internal(self, theta: np.ndarray) -> np.ndarray:
        u = np.clip(theta, self.spec.lower, self.spec.upper).astype(float)
        u[self.mask] = np.log(u[self.mask])
        return u

    def to_raw(self, u: np.ndarray) -> np.ndarray:
        theta = np.asarray(u, dtype=float).copy()
        theta[self.mask] = np.exp(np.minimum(u[self.mask], 700.0))
        return np.clip(theta, self.spec.lower, self.spec.upper)

    def chain(self, theta: np.ndarray) -> np.ndarray:
        """d theta / d u at theta."""
        return np.where(self.mask, theta, 1.0)


def _optimize_once(spec: SemSpec, value_and_grad, init: np.ndarray,
                   iterate_hook=None):
    """Maximize from one start; returns (theta, value, iterations, ok).

    ``iterate_hook``, when given, receives the raw-scale parameter after
    every accepted iteration.
    """
    tr = _BoxTransform(spec)
    peak = [1.0]  # largest |objective| seen; keeps the penalty in scale

    def negobj(u):
        theta = tr.to_raw(u)
        try:
            v, g = value_and_grad(theta)
        except (NotPositiveDefiniteError, SingularStructureError):
            v = None
        if v is None or not np.isfinite(v):
            # A graded but moderate penalty: always above every finite value
            # seen (so the line search never accepts it) yet close enough in
            # magnitude that step interpolation stays numerically sensible.
            return 1e6 + 10.0 * peak[0], np.zeros_like(u)
        peak[0] = max(peak[0], abs(v))
        return -v, -(g * tr.chain(theta))

    callback = None
    if iterate_hook is not None:
        callback = lambda u: iterate_hook(tr.to_raw(u))

    # ftol/gtol below machine resolution: iterate until the line search
    # stalls, the iteration cap, or the box; convergence is then judged on
    # the raw-scale gradient by the caller.
    res = scipy.optimize.minimize(
        negobj, tr.to_internal(np.asarray(init, dtype=float)), jac=True,
        method="L-BFGS-B", bounds=list(zip(tr.lower_u, tr.upper_u)),
        callback=callback,
        options={"maxiter": _MAX_ITER, "ftol": 1e-18, "gtol": 1e-13,
                 "maxcor": 30})
    theta = tr.to_raw(res.x)
    try:
        value, _ = value_and_grad(theta)
        ok = bool(np.isfinite(value))
    except (NotPositiveDefiniteError, SingularStructureError):
        value, ok = -np.inf, False
    return theta, float(value), int(res.nit), ok


def _finalize(surface: LikelihoodSurface, theta: np.ndarray, value: float,
              iterations: int, restarts: int, options: FitOptions) -> FitReport:
    spec = surface.spec
    _, grad = surface.value_and_grad(theta)
    grad_norm = float(np.abs(grad).max())
    converged = grad_norm < _GRAD_TOL * (1.0 + abs(value))
    boundary_hit = bool(np.any(
        np.minimum(theta - spec.lower, spec.upper - theta) <= _BOUNDARY_TOL))

    hessian = np.full((spec.q, spec.q), np.nan)
    if options.compute_hessian:
        try:
            hessian = surface.hessian(theta)
        except NotPositiveDefiniteError as exc:
            logger.warning("hessian unavailable for %s: %s", spec.name, exc)

    j_flag = False
    if np.all(np.isfinite(hessian)):
        scaled = -hessian / surface.n
        j_flag = bool(np.linalg.eigvalsh(scaled).min() > _JGATE_MIN_EIG)
    gamma_tilde = -hessian / surface.n if j_flag else np.eye(spec.q)

    return FitReport(model=spec.name, n=surface.n, q=spec.q,
                     theta_hat=theta, h_at_hat=value, grad_norm=grad_norm,
                     hessian=hessian, j_flag=j_flag, gamma_tilde=gamma_tilde,
                     iterations=iterations, restarts=restarts,
                     converged=converged, boundary_hit=boundary_hit)


def fit(surface: LikelihoodSurface, init: Optional[np.ndarray] = None,
        options: Optional[FitOptions] = None) -> FitReport:
    """Maximize the quasi-log-likelihood from one start.

    Without ``init`` the moment-style default start is used.  Raises
    :class:`AllStartsFailedError` when the start never reaches a finite
    objective value.
    """
    options = options or FitOptions()
    if init is None:
        init = moment_start(surface.spec, surface.quadvar.q_xx)
    theta, value, nit, ok = _optimize_once(
        surface.spec, surface.value_and_grad, init)
    if not ok:
        raise AllStartsFailedError(
            f"optimization of {surface.spec.name!r} failed from the given start")
    return _finalize(surface, theta, value, nit, restarts=0, options=options)


def _lhs_starts(spec: SemSpec, count: int, seed) -> list[np.ndarray]:
    if count <= 0:
        return []
    tr = _BoxTransform(spec)
    sampler = qmc.LatinHypercube(d=spec.q, seed=seed)
    u01 = sampler.random(count)
    starts = tr.lower_u + u01 * (tr.upper_u - tr.lower_u)
    return [tr.to_raw(u) for u in starts]


def fit_multistart(surface: LikelihoodSurface, starts: int = 8, seed: int = 0,
                   init: Optional[np.ndarray] = None,
                   options: Optional[FitOptions] = None) -> FitReport:
    """Best fit over ``starts`` starts; deterministic given ``seed``.

    The first start is the user-supplied ``init`` when given, otherwise the
    moment-style default; the remainder are Latin-hypercube draws over the
    box (log scale for variance parameters).  Ties in the attained value
    keep the earliest start.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    options = options or FitOptions()
    first = init if init is not None else moment_start(
        surface.spec, surface.quadvar.q_xx)
    start_list = [np.asarray(first, dtype=float)]
    start_list += _lhs_starts(surface.spec, starts - 1, seed)

    best = None
    for k, start in enumerate(start_list):
        theta, value, nit, ok = _optimize_once(
            surface.spec, surface.value_and_grad, start)
        if not ok:
            logger.debug("start %d of %s failed", k, surface.spec.name)
            continue
        if best is None or value > best[1]:
            best = (theta, value, nit)
    if best is None:
        raise AllStartsFailedError(
            f"all {starts} starts failed for {surface.spec.name!r}")
    return _finalize(surface, best[0], best[1], best[2],
                     restarts=starts - 1, options=options)


def limit_optimum(spec: SemSpec, sigma0: np.ndarray, starts: int = 8,
                  seed: int = 0, options: Optional[FitOptions] = None
                  ) -> tuple[np.ndarray, float]:
    """Maximize the in-fill limit criterion against a target covariance.

    For a correctly specified model this recovers the parameter at which
    the implied covariance equals ``sigma0``.  Returns ``(theta_bar,
    attained value)``.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    options = options or FitOptions(compute_hessian=False)
    # The limit criterion is the n=1, T=1 likelihood surface with the
    # target covariance standing in for the realized one.
    surface = LikelihoodSurface(spec, QuadVar(q_xx=sigma0, n=1, T=1.0))
    report = fit_multistart(surface, starts=starts, seed=seed,
                            init=moment_start(spec, sigma0),
                            options=options)
    return report.theta_hat, report.h_at_hat


def moment_start(spec: SemSpec, q_xx: np.ndarray) -> np.ndarray:
    """Moment-style default start.

    Loadings start at 1, factor regressions at 0.5, structural loadings at
    0; unique variances take half the matching diagonal of ``q_xx`` and
    common-factor variances half the mean diagonal of their block, so the
    implied diagonal starts on the right scale.  The result is clipped into
    the box.
    """
    from .semspec import Free

    p1 = spec.p1
    diag = np.diag(q_xx)
    block1 = float(diag[:p1].mean())
    block2 = float(diag[p1:].mean())
    theta = np.zeros(spec.q)
    defaults = {
        "lambda_x1": lambda i, j: 1.0,
        "lambda_x2": lambda i, j: 1.0,
        "b": lambda i, j: 0.0,
        "gamma": lambda i, j: 0.5,
        "sigma_xixi": lambda i, j: 0.5 * block1 if i == j else 0.0,
        "sigma_dd": lambda i, j: 0.5 * diag[i] if i == j else 0.0,
        "sigma_ee": lambda i, j: 0.5 * diag[p1 + i] if i == j else 0.0,
        "sigma_zz": lambda i, j: 0.5 * block2 if i == j else 0.0,
    }
    for role, rule in defaults.items():
        pat = spec.patterns[role]
        for i in range(pat.rows):
            for j in range(pat.cols):
                cell = pat[i, j]
                if isinstance(cell, Free):
                    theta[cell.index] = rule(i, j)
    return np.clip(theta, spec.lower, spec.upper)
