"""Quasi-maximum-likelihood estimation over the parameter box.

Maximization is active-set Fisher scoring on the raw parameters, the
Gauss-Newton method for covariance structures (Lee & Jennrich 1979): steps
solve ``(Delta' W Delta) step = grad`` on the coordinates not held at a
bound (by Cholesky; by least squares if that block is singular), are
clipped into the box and halved until the value increases, one pass of the
likelihood kernel ``qlik.score_lanes`` per trial.  A fit has converged
when its projected gradient passes the KKT test, so a valid optimum on a
bound counts as converged.

Every maximization runs as lanes of one lockstep loop, ``_optimize``, and
each lane follows bit for bit the path it would follow alone.
``fit_lanes`` fits many surfaces of one spec, each from its own starts, in
one loop; ``fit`` is one lane; ``fit_multistart`` runs its ``start_set``
(the given or moment start, then Latin-hypercube starts drawn on the moment
start's scale) as lanes and keeps the best; ``limit_optimum`` maximizes the
in-fill limit criterion the same way.  The moment start is
``semspec.moment_start``, so this module reads nothing of a spec's layout.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import lapack
from scipy.stats import qmc

from . import _doc
from .errors import AllStartsFailedError
from .qlik import LikelihoodSurface, QuadVar, score_lanes
from .semspec import SemSpec, moment_start

__all__ = [
    "FitOptions",
    "FitReport",
    "fit",
    "fit_lanes",
    "fit_multistart",
    "limit_optimum",
    "start_set",
]

logger = logging.getLogger(__name__)

_JGATE_MIN_EIG = 1e-10
_MAX_ITER = 500
_GRAD_TOL = 1e-6          # KKT: |projected grad|_inf < _GRAD_TOL*(1+|loglik|)
_BOUNDARY_TOL = 1e-8      # absolute distance that counts as "on the bound"
_MAX_HALVINGS = 30        # trials per iteration (full step, then halvings)

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
    evaluations: int          # kernel passes over all the fit's starts
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


def _kkt(grad: np.ndarray, free: np.ndarray, value) -> tuple:
    """Projected gradient |grad[free]|_inf and whether it passes the KKT
    test, per lane (the last axis holds the coordinates)."""
    residual = np.abs(np.where(free, grad, 0.0)).max(axis=-1, initial=0.0)
    return residual, residual < _GRAD_TOL * (1.0 + np.abs(value))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[l] @ b[l]`` for each lane l."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _scoring_step(info: np.ndarray, grad: np.ndarray,
                  free: np.ndarray) -> np.ndarray:
    """Per lane, the step solving ``info @ step = grad`` on the ``free``
    coordinates, zero on the others: by Cholesky on the free block; by
    least squares, which drops null directions, when that block is empty,
    not positive definite or singular to working precision."""
    steps = np.zeros_like(grad)
    for lane, keep in enumerate(free):
        block, g = info[lane][np.ix_(keep, keep)], grad[lane, keep]
        c, failed = lapack.dpotrf(block, lower=1, clean=0)
        if not failed and g.size:
            norm = np.abs(block).sum(axis=0).max()
            rcond = lapack.dpocon(c, norm, uplo="L")[0]
            if rcond > np.finfo(float).eps * g.size:
                steps[lane, keep] = lapack.dpotrs(c, g, lower=1)[0]
                continue
        steps[lane, keep] = np.linalg.lstsq(block, g, rcond=None)[0]
    return steps


class _Lanes(NamedTuple):
    """Where each lane of ``_optimize`` ended."""
    theta: np.ndarray         # (L, q) last accepted iterate
    value: np.ndarray         # (L,) its value; -inf for a start outside
    grad: np.ndarray          # (L, q)
    iterations: np.ndarray    # (L,) accepted steps
    evaluations: np.ndarray   # (L,) kernel passes, the start's included
    started: np.ndarray       # (L,) whether the start was admissible


def _optimize(spec: SemSpec, q_xx: np.ndarray, n: np.ndarray,
              inits: np.ndarray, iterate_hook=None) -> _Lanes:
    """Active-set Fisher scoring from every start at once: lane l starts at
    ``inits[l]`` on the surface of ``(q_xx[l], n[l])``.

    The lanes run in lockstep, one ``score_lanes`` pass per round for every
    lane still running, but each follows its own path, bit for bit the
    path it would follow alone.  An iteration freezes the coordinates held
    at a bound by an outward gradient, solves the scoring system on the
    rest, clips the step into the box and halves it until the value
    strictly increases; a trial outside the admissible region is simply
    rejected.  A lane stops when its step's predicted increase no longer
    changes the value in floating point, or when no trial increases it:
    one trial at a KKT point, where the scoring model is accurate and a
    failed full step can only be rounding, ``_MAX_HALVINGS`` elsewhere; or
    at ``_MAX_ITER`` iterations.  Stopping at the KKT test itself would
    leave weakly curved directions (model3's limit optimum) off by 2e-3.
    The information is computed only for the start and the accepted
    trials, whose next step needs it.  ``iterate_hook``, when given,
    receives ``(lane, theta)`` for every accepted iterate.
    """
    theta = np.clip(inits, spec.lower, spec.upper)
    first = score_lanes(spec, theta, q_xx, n)
    value, grad = first.value, first.grad
    started = first.ok
    fresh = np.flatnonzero(started)      # lanes whose next step is due
    info = np.zeros((len(theta), spec.q, spec.q))
    info[fresh] = first.information(fresh)
    iterations = np.zeros(len(theta), dtype=int)
    evaluations = np.ones(len(theta), dtype=int)
    step = np.zeros_like(theta)
    budget = np.zeros(len(theta), dtype=int)   # trials left this iteration
    running = started.copy()

    while True:
        capped = iterations[fresh] >= _MAX_ITER
        running[fresh[capped]] = False
        fresh = fresh[~capped]
        if fresh.size:
            free = _free_mask(spec, theta[fresh], grad[fresh])
            step[fresh] = _scoring_step(info[fresh], grad[fresh], free)
            base = value[fresh]
            stalled = base + 0.5 * _row_dot(grad[fresh], step[fresh]) == base
            running[fresh[stalled]] = False
            budget[fresh] = np.where(_kkt(grad[fresh], free, base)[1],
                                     1, _MAX_HALVINGS)
        trying = np.flatnonzero(running)
        if not trying.size:
            break
        trial = np.clip(theta[trying] + step[trying], spec.lower, spec.upper)
        scores = score_lanes(spec, trial, q_xx[trying], n[trying])
        evaluations[trying] += 1
        up = scores.value > value[trying]
        fresh = trying[up]
        theta[fresh], value[fresh] = trial[up], scores.value[up]
        grad[fresh] = scores.grad[up]
        info[fresh] = scores.information(np.flatnonzero(up))
        iterations[fresh] += 1
        if iterate_hook is not None:
            for lane in fresh:
                iterate_hook(lane, theta[lane])
        down = trying[~up]
        step[down] *= 0.5
        budget[down] -= 1
        running[down[budget[down] == 0]] = False
    return _Lanes(theta, value, grad, iterations, evaluations, started)


def _finalize(surface: LikelihoodSurface, lanes: _Lanes, best: int,
              evaluations: int, restarts: int,
              options: FitOptions) -> FitReport:
    spec = surface.spec
    theta, grad = lanes.theta[best], lanes.grad[best]
    value = float(lanes.value[best])
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
                     theta_hat=theta, h_at_hat=value, grad_norm=float(kkt),
                     hessian=hessian, j_flag=j_flag, gamma_tilde=gamma_tilde,
                     iterations=int(lanes.iterations[best]),
                     evaluations=evaluations, restarts=restarts,
                     converged=bool(converged), boundary_hit=boundary_hit)


def fit_lanes(surfaces: Sequence[LikelihoodSurface],
              start_sets: Sequence[Sequence[np.ndarray]],
              options: Optional[FitOptions] = None) -> list[Optional[FitReport]]:
    """Maximize each surface from each of its starts, every start of every
    surface one lane of one lockstep ``_optimize`` loop.

    The surfaces share one spec.  Each report is that of the surface's best
    start (ties in the attained value keep the earliest), with
    ``evaluations`` summed over all its starts and ``restarts`` the number
    of starts after the first; it is ``None`` when every start lies outside
    the admissible region.  A surface's report does not depend on which
    other surfaces share the loop.
    """
    options = options or FitOptions()
    spec = surfaces[0].spec
    if any(surface.spec is not spec for surface in surfaces):
        raise ValueError("fit_lanes needs surfaces of one spec")
    owner = np.repeat(np.arange(len(surfaces)), [len(s) for s in start_sets])
    inits = np.array([spec._check_theta(start) for starts in start_sets
                      for start in starts]).reshape(len(owner), spec.q)
    lanes = _optimize(spec, np.array([s.quadvar.q_xx for s in surfaces])[owner],
                      np.array([s.n for s in surfaces], dtype=float)[owner],
                      inits)
    reports = []
    for k, surface in enumerate(surfaces):
        mine = np.flatnonzero(owner == k)
        usable = mine[lanes.started[mine]]
        if not usable.size:
            logger.debug("every start of %s failed", spec.name)
            reports.append(None)
            continue
        best = usable[np.argmax(lanes.value[usable])]
        reports.append(_finalize(surface, lanes, best,
                                 int(lanes.evaluations[mine].sum()),
                                 len(mine) - 1, options))
    return reports


def fit(surface: LikelihoodSurface, init: Optional[np.ndarray] = None,
        options: Optional[FitOptions] = None) -> FitReport:
    """Maximize the quasi-log-likelihood from one start: ``fit_lanes`` on
    one lane.

    Without ``init`` the moment-style default start is used.  Raises
    :class:`AllStartsFailedError` when the start lies outside the
    admissible region.
    """
    if init is None:
        init = moment_start(surface.spec, surface.quadvar.q_xx)
    (report,) = fit_lanes([surface], [[init]], options)
    if report is None:
        raise AllStartsFailedError(
            f"optimization of {surface.spec.name!r} failed from the given start")
    return report


def _lhs_starts(spec: SemSpec, centre: np.ndarray, count: int,
                seed) -> list[np.ndarray]:
    """Latin-hypercube starts on the scale of ``centre``: positive
    parameters in ``[m/4, 4m]`` (log-uniform), the others in
    ``m +- max(1, |m|)``, clipped into the box."""
    u = 2.0 * qmc.LatinHypercube(d=spec.q, seed=seed).random(count) - 1.0
    starts = np.where(spec.positive_mask, centre * 4.0 ** u,
                      centre + u * np.maximum(1.0, np.abs(centre)))
    return list(np.clip(starts, spec.lower, spec.upper))


def start_set(surface: LikelihoodSurface, starts: int = 8, seed: int = 0,
              init: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """The starts of ``fit_multistart``; deterministic given ``seed``.

    The first start is the user-supplied ``init`` when given, otherwise the
    moment start; the remainder are Latin-hypercube draws around the moment
    start (see ``_lhs_starts``).
    """
    if starts < 1:
        raise ValueError("need at least one start")
    centre = moment_start(surface.spec, surface.quadvar.q_xx)
    first = centre if init is None else np.asarray(init, dtype=float)
    return [first] + _lhs_starts(surface.spec, centre, starts - 1, seed)


def fit_multistart(surface: LikelihoodSurface, starts: int = 8, seed: int = 0,
                   init: Optional[np.ndarray] = None,
                   options: Optional[FitOptions] = None) -> FitReport:
    """Best fit over the ``start_set`` of ``starts`` starts, all run as
    lanes of one ``fit_lanes`` loop; ties in the attained value keep the
    earliest start."""
    (report,) = fit_lanes([surface], [start_set(surface, starts, seed, init)],
                          options)
    if report is None:
        raise AllStartsFailedError(
            f"all {starts} starts failed for {surface.spec.name!r}")
    return report


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
