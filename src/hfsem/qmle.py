"""Quasi-maximum-likelihood estimation over the parameter box.

Maximization is active-set Fisher scoring on the raw parameters, the
Gauss-Newton method for covariance structures (Lee & Jennrich 1979): steps
solve ``(Delta' W Delta) step = grad`` on the coordinates not held at a
bound (by Cholesky; by least squares if that block is singular), are
clipped into the box and halved until the value increases, one ``score``
pass per trial.  A fit has converged when its projected gradient passes
the KKT test, so a valid optimum on a bound counts as converged.

``fit`` performs a single start, ``fit_multistart`` adds Latin-hypercube
starts drawn on the moment start's scale and keeps the best run, and
``limit_optimum`` maximizes the in-fill limit criterion the same way.  The
moment start is ``semspec.moment_start``, so this module reads nothing of a
spec's layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
from scipy.linalg import lapack
from scipy.stats import qmc

from . import _doc
from .errors import (AllStartsFailedError, NotPositiveDefiniteError,
                     SingularStructureError)
from .qlik import LikelihoodSurface, QuadVar
from .semspec import SemSpec, moment_start

__all__ = [
    "FitOptions",
    "FitReport",
    "fit",
    "fit_multistart",
    "limit_optimum",
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
        """Each field is read by the reader of its declared type."""
        _doc.fields(doc, "fit report", [f.name for f in fields(cls)
                                        if f.name != "hessian"], ["hessian"])
        read = {"str": _doc.text, "int": _doc.integer, "float": _doc.number,
                "bool": _doc.flag, "np.ndarray": _doc.array}
        values = {f.name: read[f.type](doc[f.name], f"fit report field {f.name!r}")
                  for f in fields(cls)
                  if f.name != "hessian" or doc.get("hessian") is not None}
        q = values["q"]
        values.setdefault("hessian", np.full((q, q), np.nan))
        return cls(**values)


def _free_mask(spec: SemSpec, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Coordinates the step may move: not at a bound with outward gradient."""
    at_lower = theta - spec.lower <= _BOUNDARY_TOL
    at_upper = spec.upper - theta <= _BOUNDARY_TOL
    return ~((at_lower & (grad <= 0.0)) | (at_upper & (grad >= 0.0)))


def _kkt(grad: np.ndarray, free: np.ndarray, value: float) -> tuple[float, bool]:
    """Projected gradient |grad[free]|_inf and whether it passes the KKT test."""
    residual = float(np.abs(grad[free]).max(initial=0.0))
    return residual, residual < _GRAD_TOL * (1.0 + abs(value))


def _scoring_step(info: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``info @ step = grad`` by Cholesky; by least squares, which drops null
    directions, when the block is empty or singular to working precision."""
    c, failed = lapack.dpotrf(info, lower=1, clean=0)
    if not failed and grad.size:
        rcond = lapack.dpocon(c, np.abs(info).sum(axis=0).max(), uplo="L")[0]
        if rcond > np.finfo(float).eps * grad.size:
            return lapack.dpotrs(c, grad, lower=1)[0]
    return np.linalg.lstsq(info, grad, rcond=None)[0]


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
    theta = np.clip(spec._check_theta(init), spec.lower, spec.upper)
    try:
        value, grad, info = surface.score(theta)
    except _OUT_OF_REGION:
        return None
    if not np.isfinite(value):
        return None

    iterations = 0
    while iterations < _MAX_ITER:
        free = _free_mask(spec, theta, grad)
        step = np.zeros(spec.q)
        step[free] = _scoring_step(info[np.ix_(free, free)], grad[free])
        if value + 0.5 * (grad @ step) == value:
            break
        for _ in range(1 if _kkt(grad, free, value)[1] else _MAX_HALVINGS):
            trial = np.clip(theta + step, spec.lower, spec.upper)
            try:
                v, g, fi = surface.score(trial)
            except _OUT_OF_REGION:
                v = -np.inf
            if v > value:
                break
            step *= 0.5
        else:
            break
        theta, value, grad, info = trial, v, g, fi
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
                  seed: int = 0) -> tuple[np.ndarray, float]:
    """Maximize the in-fill limit criterion against a target covariance.

    For a correctly specified model this recovers the parameter at which
    the implied covariance equals ``sigma0``.  Returns ``(theta_bar,
    attained value)``.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    # The limit criterion is the n=1, T=1 likelihood surface with the
    # target covariance standing in for the realized one.
    surface = LikelihoodSurface(spec, QuadVar(q_xx=sigma0, n=1, T=1.0))
    report = fit_multistart(surface, starts=starts, seed=seed,
                            options=FitOptions(compute_hessian=False))
    return report.theta_hat, report.h_at_hat
