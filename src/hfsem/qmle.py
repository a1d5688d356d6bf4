"""Quasi-maximum-likelihood estimation over the parameter box.

Maximization is active-set Fisher scoring on the raw parameters, the
Gauss-Newton method for covariance structures (Lee & Jennrich 1979): steps
solve ``(Delta' W Delta) step = grad`` on the coordinates not held at a
bound, are clipped into the box and halved until the value increases.  A
fit has converged when its projected gradient passes the KKT test, so a
valid optimum on a bound counts as converged.

``fit`` performs a single start, ``fit_multistart`` adds Latin-hypercube
starts drawn on the moment start's scale and keeps the best run, and
``limit_optimum`` maximizes the in-fill limit criterion the same way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
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
_GRAD_TOL = 1e-6          # KKT: |projected grad|_inf < _GRAD_TOL*(1+|loglik|)
_BOUNDARY_TOL = 1e-8      # absolute distance that counts as "on the bound"
_MAX_HALVINGS = 30        # trials per iteration (full step, then halvings)

_OUT_OF_REGION = (NotPositiveDefiniteError, SingularStructureError)


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
    grad_norm: float          # |projected gradient|_inf, the KKT residual
    hessian: np.ndarray
    j_flag: bool
    gamma_tilde: np.ndarray
    iterations: int
    restarts: int
    converged: bool
    boundary_hit: bool

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for key in ("theta_hat", "hessian", "gamma_tilde"):
            doc[key] = doc[key].tolist()
        if not np.all(np.isfinite(self.hessian)):
            doc["hessian"] = None
        return doc

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


def _free_mask(spec: SemSpec, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Coordinates the step may move: not at a bound with outward gradient."""
    at_lower = theta - spec.lower <= _BOUNDARY_TOL
    at_upper = spec.upper - theta <= _BOUNDARY_TOL
    return ~((at_lower & (grad <= 0.0)) | (at_upper & (grad >= 0.0)))


def _kkt(grad: np.ndarray, free: np.ndarray, value: float) -> tuple[float, bool]:
    """Projected gradient |grad[free]|_inf and whether it passes the KKT test."""
    residual = float(np.abs(grad[free]).max(initial=0.0))
    return residual, residual < _GRAD_TOL * (1.0 + abs(value))


def _optimize_once(surface: LikelihoodSurface, init: np.ndarray,
                   iterate_hook=None):
    """Active-set Fisher scoring from one start; returns ``(theta, value,
    grad, iterations)``, or ``None`` when the start lies outside the
    admissible region.

    Each iteration freezes the coordinates held at a bound by an outward
    gradient, solves the scoring system on the rest, clips the step into
    the box and halves it until the value strictly increases; a trial
    where ``Sigma`` is not positive definite is simply rejected.  The loop
    stops when the step's predicted increase no longer changes the value in
    floating point, or when no trial increases it: one trial at a KKT point,
    where the scoring model is accurate and a failed full step can only be
    rounding, ``_MAX_HALVINGS`` elsewhere.  Stopping at the KKT test itself
    would leave weakly curved directions (model3's limit optimum) off by
    2e-3.  ``iterate_hook``, when given, receives every accepted iterate.
    """
    spec = surface.spec
    theta = np.clip(np.asarray(init, dtype=float), spec.lower, spec.upper)
    try:
        value, grad = surface.value_and_grad(theta)
    except _OUT_OF_REGION:
        return None
    if not np.isfinite(value):
        return None

    iterations = 0
    while iterations < _MAX_ITER:
        free = _free_mask(spec, theta, grad)
        info = surface.information(theta)[np.ix_(free, free)]
        step = np.zeros(spec.q)
        step[free] = np.linalg.lstsq(info, grad[free], rcond=None)[0]
        if value + 0.5 * (grad @ step) == value:
            break
        for _ in range(1 if _kkt(grad, free, value)[1] else _MAX_HALVINGS):
            trial = np.clip(theta + step, spec.lower, spec.upper)
            try:
                v, g = surface.value_and_grad(trial)
            except _OUT_OF_REGION:
                v = -np.inf
            if v > value:
                break
            step *= 0.5
        else:
            break
        theta, value, grad = trial, v, g
        iterations += 1
        if iterate_hook is not None:
            iterate_hook(theta)
    return theta, float(value), grad, iterations


def _finalize(surface: LikelihoodSurface, run: tuple, restarts: int,
              options: FitOptions) -> FitReport:
    spec = surface.spec
    theta, value, grad, iterations = run
    kkt, converged = _kkt(grad, _free_mask(spec, theta, grad), value)
    boundary_hit = bool(np.any(
        np.minimum(theta - spec.lower, spec.upper - theta) <= _BOUNDARY_TOL))

    # theta is an accepted iterate, so Sigma(theta) is positive definite
    # and the analytic Hessian exists.
    hessian = np.full((spec.q, spec.q), np.nan)
    if options.compute_hessian:
        hessian = surface.hessian(theta)

    j_flag = False
    if np.all(np.isfinite(hessian)):
        scaled = -hessian / surface.n
        j_flag = bool(np.linalg.eigvalsh(scaled).min() > _JGATE_MIN_EIG)
    gamma_tilde = -hessian / surface.n if j_flag else np.eye(spec.q)

    return FitReport(model=spec.name, n=surface.n, q=spec.q,
                     theta_hat=theta, h_at_hat=value, grad_norm=kkt,
                     hessian=hessian, j_flag=j_flag, gamma_tilde=gamma_tilde,
                     iterations=iterations, restarts=restarts,
                     converged=converged, boundary_hit=boundary_hit)


def fit(surface: LikelihoodSurface, init: Optional[np.ndarray] = None,
        options: Optional[FitOptions] = None) -> FitReport:
    """Maximize the quasi-log-likelihood from one start.

    Without ``init`` the moment-style default start is used.  Raises
    :class:`AllStartsFailedError` when the start lies outside the
    admissible region.
    """
    options = options or FitOptions()
    if init is None:
        init = moment_start(surface.spec, surface.quadvar.q_xx)
    run = _optimize_once(surface, init)
    if run is None:
        raise AllStartsFailedError(
            f"optimization of {surface.spec.name!r} failed from the given start")
    return _finalize(surface, run, restarts=0, options=options)


def _lhs_starts(spec: SemSpec, centre: np.ndarray, count: int,
                seed) -> list[np.ndarray]:
    """Latin-hypercube starts on the scale of ``centre``: positive
    parameters in ``[m/4, 4m]`` (log-uniform), the others in
    ``m +- max(1, |m|)``, clipped into the box."""
    u = 2.0 * qmc.LatinHypercube(d=spec.q, seed=seed).random(count) - 1.0
    starts = np.where(spec.positive_mask, centre * 4.0 ** u,
                      centre + u * np.maximum(1.0, np.abs(centre)))
    return list(np.clip(starts, spec.lower, spec.upper))


def fit_multistart(surface: LikelihoodSurface, starts: int = 8, seed: int = 0,
                   init: Optional[np.ndarray] = None,
                   options: Optional[FitOptions] = None) -> FitReport:
    """Best fit over ``starts`` starts; deterministic given ``seed``.

    The first start is the user-supplied ``init`` when given, otherwise the
    moment start; the remainder are Latin-hypercube draws around the moment
    start (see ``_lhs_starts``).  Ties in the attained value keep the
    earliest start.
    """
    if starts < 1:
        raise ValueError("need at least one start")
    options = options or FitOptions()
    centre = moment_start(surface.spec, surface.quadvar.q_xx)
    start_list = [centre if init is None else np.asarray(init, dtype=float)]
    start_list += _lhs_starts(surface.spec, centre, starts - 1, seed)

    best = None
    for k, start in enumerate(start_list):
        run = _optimize_once(surface, start)
        if run is None:
            logger.debug("start %d of %s failed", k, surface.spec.name)
        elif best is None or run[1] > best[1]:
            best = run
    if best is None:
        raise AllStartsFailedError(
            f"all {starts} starts failed for {surface.spec.name!r}")
    return _finalize(surface, best, restarts=starts - 1, options=options)


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
