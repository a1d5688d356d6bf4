"""Quasi-maximum-likelihood estimation over the parameter box.

Maximization is an active-set Newton iteration on the raw parameters.
Each step solves ``-H step = grad`` on the coordinates not held at a bound,
with ``H`` the observed Hessian of the kernel pass that accepted the
iterate, by Cholesky.  Where that block of ``-H`` is not positive definite
or is ill-conditioned, as far from an optimum, the step is Fisher
scoring's instead, the Gauss-Newton method for covariance structures (Lee
& Jennrich 1979): it solves ``(Delta' W Delta) step = grad`` on the
information of the same pass (by Cholesky; by least squares if that block
is singular).  Both steps are one per-lane solve, ``_free_steps``.  Newton
converges quadratically where scoring converges only linearly when the
information differs from ``-H``, as for a misspecified model.  Steps are
clipped into the box and halved until the value increases, one pass of
the likelihood kernel ``qlik.score_lanes`` per trial.  A fit has converged
when its projected gradient passes the KKT test, so a valid optimum on a
bound counts as converged.

Every maximization runs as lanes of one lockstep loop, ``_optimize``, and
each lane follows bit for bit the path it would follow alone.
``fit_lanes`` fits one spec to a stack of Q, each from its own starts, in
one loop; a ``FitReport`` keeps the observed Hessian of its best lane's
last accepted pass, bit for bit ``LikelihoodSurface.hessian`` at
``theta_hat`` and with no kernel pass after the loop, and ``infocrit``
derives the criteria from it.  ``fit_multistart(spec, quadvar)``, the one
single-Q fit and the one to raise ``AllStartsFailedError``, runs a
``QuadVar``'s ``start_set`` (the given or moment start, then Latin-hypercube
starts on the moment start's scale) as lanes and keeps the best; ``fit`` is
its one-start view of a ``LikelihoodSurface``, and ``limit_optimum`` its
case on sigma0 as the Q of one increment.  The moment start is
``semspec.moment_start``, so this module reads nothing of a spec's layout.
``_optimize`` takes its kernel as an argument, so the injectivity probe of
``check_identifiability`` runs on its lanes too, by Gauss-Newton: its
kernel has no Hessian.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy.linalg import lapack

from . import _doc, matkit
from .errors import AllStartsFailedError
from .qlik import (NON_FINITE, OK, LaneScores, LikelihoodSurface, QuadVar,
                   score_lanes)
from .semspec import SemSpec, _probe_start, jacobian_rank, moment_start

__all__ = [
    "FitOptions",
    "FitReport",
    "IdentifiabilityReport",
    "check_identifiability",
    "fit",
    "fit_lanes",
    "fit_multistart",
    "limit_optimum",
    "start_set",
]

logger = logging.getLogger(__name__)

_MAX_ITER = 500
_GRAD_TOL = 1e-6          # KKT: |projected grad|_inf < _GRAD_TOL*(1+|loglik|)
_BOUNDARY_TOL = 1e-8      # absolute distance that counts as "on the bound"
_MAX_HALVINGS = 30        # trials per iteration (full step, then halvings)
_EPS = np.finfo(float).eps
_PREIMAGE_TOL = 1e-8        # check_identifiability: Sigma reproduced
_WITNESS_MIN_DIST = 1e-6    # check_identifiability: a distinct preimage

@dataclass
class FitOptions:
    compute_hessian: bool = True     # whether the report keeps its Hessian


@dataclass
class FitReport:
    """Everything the information criteria need about one maximization."""
    model: str
    n: int
    q: int
    theta_hat: np.ndarray
    h_at_hat: float
    grad_norm: float          # |projected gradient|_inf, the KKT residual
    hessian: np.ndarray       # NaN if FitOptions blanks it or a dict lacks it
    iterations: int
    evaluations: int          # kernel passes over all the fit's starts
    restarts: int
    converged: bool
    boundary_hit: bool

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["theta_hat"] = self.theta_hat.tolist()
        finite = np.all(np.isfinite(self.hessian))
        doc["hessian"] = self.hessian.tolist() if finite else None
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FitReport":
        """Each field is read by the reader of its declared type, the one
        string, ``model``, as a model name; ``n`` must be at least 1, the
        arrays must have the shapes ``q`` gives, and the floats and arrays
        must be finite (``hessian`` may be null)."""
        _doc.fields(doc, "fit report", [f.name for f in fields(cls)
                                        if f.name != "hessian"], ["hessian"])
        read = {"str": _doc.model_name, "int": _doc.integer, "float": _doc.number,
                "bool": _doc.flag, "np.ndarray": _doc.array}
        values = {f.name: read[f.type](doc[f.name], f"fit report field {f.name!r}")
                  for f in fields(cls)
                  if f.name != "hessian" or doc.get("hessian") is not None}
        _doc.integer(values["n"], "fit report field 'n'", 1)
        for key in ("theta_hat", "h_at_hat", "grad_norm", "hessian"):
            if key in values and not np.all(np.isfinite(values[key])):
                raise ValueError(f"fit report field {key!r} must be finite")
        q = values["q"]
        for key, shape in (("theta_hat", (q,)), ("hessian", (q, q))):
            if key not in values:     # a null Hessian, once theta_hat fits q
                values[key] = np.full(shape, np.nan)
            elif values[key].shape != shape:
                raise ValueError(f"fit report field {key!r} must have shape "
                                 f"{shape} for q={q}, got {values[key].shape}")
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


def _free_steps(matrix: np.ndarray, grad: np.ndarray, free: np.ndarray,
                least_squares: bool = False, negate: bool = False
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per lane, the step solving ``matrix @ step = grad`` (``-matrix``
    with ``negate``) on the ``free`` coordinates by Cholesky on the free
    block, zero on the others; and which lanes Cholesky could not solve:
    an empty block, one that is not positive definite, or one singular to
    working precision (as a block with a non-finite entry is, to
    ``dpotrf`` or ``dpocon``).  With
    ``least_squares`` such a lane's step is least squares' on its block,
    which drops null directions; without, it stays zero.

    A lane with a frozen coordinate gathers its free block once, and a lane
    with every coordinate free solves on its whole matrix, ungathered; each
    takes the 1-norm for ``dpocon`` from its own block.  With ``negate``
    (Newton's step on a Hessian) each lane negates its own block, so no
    negated copy of the ``(L, q, q)`` stack is made."""
    whole = free.all(axis=1)
    steps = np.zeros_like(grad)
    failed = np.zeros(len(grad), dtype=bool)
    for lane, keep in enumerate(free):
        if whole[lane]:
            block, keep = matrix[lane], slice(None)
        else:
            keep = np.flatnonzero(keep)
            block = matrix[lane].take(keep, 0).take(keep, 1)
        if negate:
            block = -block
        g = grad[lane, keep]
        c, bad = lapack.dpotrf(block, lower=1, clean=0)
        if not bad and g.size:
            # The block is symmetric: f2py passes its transpose uncopied.
            rcond = lapack.dpocon(c, lapack.dlange("1", block.T), uplo="L")[0]
            if rcond > _EPS * g.size:
                steps[lane, keep] = lapack.dpotrs(c, g, lower=1)[0]
                continue
        failed[lane] = True
        if least_squares:
            steps[lane, keep] = np.linalg.lstsq(block, g, rcond=None)[0]
    return steps, failed


def _ascent_step(scores: LaneScores, at: np.ndarray, hessian,
                 grad: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The steps of lanes ``at`` of the pass ``scores``: Newton's, solving
    ``-hessian @ step = grad`` on the free coordinates, where that block is
    positive definite and well conditioned; elsewhere, or with no Hessian
    (None), the scoring step, ``_free_steps`` with least squares on the
    pass's information, computed for those lanes alone.  ``hessian`` is
    read, not changed: each lane negates its own block."""
    if hessian is None:
        return _free_steps(scores.information(at), grad, free, True)[0]
    steps, failed = _free_steps(hessian, grad, free, negate=True)
    if failed.any():
        steps[failed] = _free_steps(scores.information(at[failed]),
                                    grad[failed], free[failed], True)[0]
    return steps


class _Lanes(NamedTuple):
    """Where each lane of ``_optimize`` ended."""
    theta: np.ndarray         # (L, q) last accepted iterate
    value: np.ndarray         # (L,) its value; -inf for a start outside
    grad: np.ndarray          # (L, q)
    hessian: np.ndarray       # (L, q, q) its observed Hessian; NaN if none
    iterations: np.ndarray    # (L,) accepted steps
    evaluations: np.ndarray   # (L,) kernel passes, the start's included
    started: np.ndarray       # (L,) whether the start was admissible


def _optimize(spec: SemSpec, score, inits: np.ndarray) -> _Lanes:
    """Active-set Newton iteration from every start at once, lane l from
    ``inits[l]``; the kernel ``score(theta, at)`` scores lane at[b] at theta[b].

    The lanes run in lockstep, one kernel pass per round for every
    lane still running, but each follows its own path, bit for bit the
    path it would follow alone.  An iteration freezes the coordinates held
    at a bound by an outward gradient and solves for a step on the rest:
    Newton's, on the observed Hessian of the pass that accepted the
    iterate, where its negated free block is positive definite and well
    conditioned, and otherwise Fisher scoring's, on the information of the
    same pass (Gauss-Newton for the probe's kernel, which has no Hessian).
    It clips the step into the box and halves it until the value strictly
    increases; a trial outside the admissible region is simply rejected.
    A lane stops when its step's predicted increase no longer changes the
    value in floating point, or when no trial increases it: one trial at a
    KKT point, where the quadratic model is accurate and a failed full
    step can only be rounding, ``_MAX_HALVINGS`` elsewhere; or at
    ``_MAX_ITER`` iterations.  Stopping at the KKT test itself would leave
    weakly curved directions (model3's limit optimum) off by 2e-3.  The
    Hessian and the information are computed only for the start and the
    accepted trials, whose next step needs them, and each lane keeps the
    Hessian of its last accepted iterate.

    A round holds the ``(L, q, q)`` stack of kept Hessians and at most one
    working copy: the pass's Hessians are written into the stack and
    dropped, the step reads the running lanes' gather from the stack (each
    lane negating its own block), and the pass itself is dropped before
    the kernel scores the next one.
    """
    theta = np.clip(inits, spec.lower, spec.upper)
    scores = score(theta, np.arange(len(theta)))
    value, grad = scores.value, scores.grad
    started = scores.ok
    fresh = np.flatnonzero(started)      # lanes whose next step is due
    at = fresh                           # and their places in the last pass
    hessian = np.full((len(theta), spec.q, spec.q), np.nan)
    iterations = np.zeros(len(theta), dtype=int)
    evaluations = np.ones(len(theta), dtype=int)
    step = np.zeros_like(theta)
    budget = np.zeros(len(theta), dtype=int)   # trials left this iteration
    running = started.copy()

    while True:
        if fresh.size:
            found = scores.hessian(at)      # None for a kernel without one
            newton = found is not None
            if newton:
                hessian[fresh] = found
            del found
            go = iterations[fresh] < _MAX_ITER
            running[fresh[~go]] = False
            fresh, at = fresh[go], at[go]
        if fresh.size:
            free = _free_mask(spec, theta[fresh], grad[fresh])
            step[fresh] = _ascent_step(
                scores, at, hessian[fresh] if newton else None,
                grad[fresh], free)
            base = value[fresh]
            stalled = base + 0.5 * _row_dot(grad[fresh], step[fresh]) == base
            running[fresh[stalled]] = False
            budget[fresh] = np.where(_kkt(grad[fresh], free, base)[1],
                                     1, _MAX_HALVINGS)
        trying = np.flatnonzero(running)
        if not trying.size:
            break
        trial = np.clip(theta[trying] + step[trying], spec.lower, spec.upper)
        del scores
        scores = score(trial, trying)
        evaluations[trying] += 1
        up = scores.value > value[trying]
        fresh, at = trying[up], np.flatnonzero(up)
        theta[fresh], value[fresh] = trial[up], scores.value[up]
        grad[fresh] = scores.grad[up]
        iterations[fresh] += 1
        down = trying[~up]
        step[down] *= 0.5
        budget[down] -= 1
        running[down[budget[down] == 0]] = False
    return _Lanes(theta, value, grad, hessian, iterations, evaluations, started)


def _finalize(spec: SemSpec, n: int, lanes: _Lanes, best: int,
              evaluations: int, restarts: int) -> FitReport:
    theta, grad = lanes.theta[best], lanes.grad[best]
    value = float(lanes.value[best])
    kkt, converged = _kkt(grad, _free_mask(spec, theta, grad), value)
    boundary_hit = bool(np.any(
        np.minimum(theta - spec.lower, spec.upper - theta) <= _BOUNDARY_TOL))
    return FitReport(model=spec.name, n=n, q=spec.q,
                     theta_hat=theta, h_at_hat=value, grad_norm=float(kkt),
                     # a copy, which leaves the loop's (L, q, q) stack free
                     hessian=lanes.hessian[best].copy(),
                     iterations=int(lanes.iterations[best]),
                     evaluations=evaluations, restarts=restarts,
                     converged=bool(converged), boundary_hit=boundary_hit)


def fit_lanes(spec: SemSpec, q_xx: np.ndarray, n: np.ndarray,
              start_sets: Sequence[Sequence[np.ndarray]]
              ) -> list[Optional[FitReport]]:
    """Fit ``spec`` to each realized covariation ``q_xx[k]`` of an (R, p, p)
    stack, over ``n[k]`` increments, from each start of ``start_sets[k]``:
    every start one lane of one lockstep ``_optimize`` loop.

    Each report is that of its best start (ties in the attained value keep
    the earliest), with the observed Hessian of that lane's last accepted
    pass, ``evaluations`` summed over all its starts and ``restarts`` the
    number of starts after the first; it is ``None`` when every start lies
    outside the admissible region.  A report does not depend on which
    other fits share the loop.  Disagreeing shapes, or an ``n`` that is
    not an integer of at least 1, raise ``ValueError``.
    """
    q_xx, n = np.asarray(q_xx, dtype=float), np.asarray(n, dtype=float)
    if (q_xx.shape[1:] != (spec.p, spec.p) or n.shape != q_xx.shape[:1]
            or len(start_sets) != len(q_xx)):
        raise ValueError(f"fit_lanes needs an (R, {spec.p}, {spec.p}) Q stack, "
                         f"R values of n and R start sets; got Q {q_xx.shape}, "
                         f"n {n.shape} and {len(start_sets)} start sets")
    if not np.all(np.isfinite(n) & (n >= 1) & (n == np.floor(n))):
        raise ValueError(f"fit_lanes needs each n an integer >= 1, got {n}")
    owner = np.repeat(np.arange(len(q_xx)), [len(s) for s in start_sets])
    inits = np.array([spec._check_theta(start) for starts in start_sets
                      for start in starts]).reshape(len(owner), spec.q)
    lanes = _optimize(spec, lambda theta, at: score_lanes(
        spec, theta, q_xx[owner[at]], n[owner[at]]), inits)

    reports: list[Optional[FitReport]] = []
    for k in range(len(q_xx)):
        mine = owner == k
        admissible = np.flatnonzero(mine & lanes.started)
        if not admissible.size:
            logger.debug("every start of %s failed", spec.name)
            reports.append(None)
            continue
        best = admissible[np.argmax(lanes.value[admissible])]
        reports.append(_finalize(spec, int(n[k]), lanes, best,
                                 int(lanes.evaluations[mine].sum()),
                                 int(mine.sum()) - 1))
    return reports


def fit(surface: LikelihoodSurface, init: Optional[np.ndarray] = None,
        options: Optional[FitOptions] = None) -> FitReport:
    """``fit_multistart`` on the surface from one start, ``init`` or else
    the moment start; with ``compute_hessian`` off its Hessian is NaN."""
    report = fit_multistart(surface.spec, surface.quadvar, 1, 0, init)
    if options is not None and not options.compute_hessian:
        report.hessian[...] = np.nan
    return report


def _latin_hypercube(d: int, count: int, seed) -> np.ndarray:
    """(count, d) Latin-hypercube sample of [0, 1)^d: each column puts one
    point in each of ``count`` equal strata, uniformly within it.  Draws as
    ``scipy.stats.qmc.LatinHypercube(d, seed=seed).random(count)`` does, so
    the two agree bit for bit."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(count, d))
    perms = np.tile(np.arange(1, count + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - u) / count


def _lhs_starts(spec: SemSpec, centre: np.ndarray, count: int,
                seed) -> list[np.ndarray]:
    """Latin-hypercube starts on the scale of ``centre``: positive
    parameters in ``[m/4, 4m]`` (log-uniform), the others in
    ``m +- max(1, |m|)``, clipped into the box."""
    u = 2.0 * _latin_hypercube(spec.q, count, seed) - 1.0
    starts = np.where(spec.positive_mask, centre * 4.0 ** u,
                      centre + u * np.maximum(1.0, np.abs(centre)))
    return list(np.clip(starts, spec.lower, spec.upper))


def start_set(spec: SemSpec, q_xx: np.ndarray, starts: int = 8, seed: int = 0,
              init: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """The ``starts`` starts of a fit of ``spec`` to the realized
    covariation ``q_xx``; deterministic given ``seed``.

    The first start is the user-supplied ``init`` when given, otherwise the
    moment start; the remainder are Latin-hypercube draws around the moment
    start (see ``_lhs_starts``).  ``moment_start`` checks that ``q_xx`` is
    (p, p), for this and for ``fit_multistart``.
    """
    starts = _doc.integer(starts, "starts", 1)
    seed = _doc.integer(seed, "seed")
    centre = moment_start(spec, q_xx)
    first = centre if init is None else np.asarray(init, dtype=float)
    return [first] + _lhs_starts(spec, centre, starts - 1, seed)


def fit_multistart(spec: SemSpec, quadvar: QuadVar, starts: int = 8,
                   seed: int = 0, init: Optional[np.ndarray] = None) -> FitReport:
    """Best fit of ``spec`` to ``quadvar`` over the ``start_set`` of
    ``starts`` starts, all run as lanes of one ``fit_lanes`` loop; ties in
    the attained value keep the earliest start.  The one single-Q fit:
    when every start lies outside the admissible region it raises
    :class:`AllStartsFailedError`."""
    (report,) = fit_lanes(spec, quadvar.q_xx[None], [quadvar.n],
                          [start_set(spec, quadvar.q_xx, starts, seed, init)])
    if report is None:
        raise AllStartsFailedError(
            f"all {starts} starts failed for {spec.name!r}")
    return report


def limit_optimum(spec: SemSpec, sigma0: np.ndarray, starts: int = 8,
                  seed: int = 0) -> tuple[np.ndarray, float]:
    """Maximize the in-fill limit criterion against a target covariance,
    by ``fit_multistart`` on sigma0 as the Q of one increment of [0, 1].

    For a correctly specified model this recovers the parameter at which
    the implied covariance equals ``sigma0``; returns ``(theta_bar,
    attained value)``.  A target that is not finite, symmetric and
    positive definite raises ``ValueError`` (one that is not positive
    definite leaves the criterion unbounded above), and one on which every
    start fails raises :class:`AllStartsFailedError`.
    """
    target = QuadVar(sigma0, n=1, T=1.0)
    if matkit._chol_lanes(target.q_xx[None])[2][0]:
        raise ValueError("limit_optimum target sigma0 is not positive definite")
    report = fit_multistart(spec, target, starts, seed)
    return report.theta_hat, report.h_at_hat


@dataclass
class IdentifiabilityReport:
    """Outcome of the rank check and the local-injectivity probe."""
    model: str
    q: int
    rank: int
    rank_ok: bool
    trials: int
    preimages_found: int
    witnesses: list = field(default_factory=list)
    collinear_columns: Optional[tuple[int, int]] = None

    @property
    def passed(self) -> bool:
        return self.rank_ok and not self.witnesses


def _distance_scores(spec: SemSpec, theta: np.ndarray,
                     sigma0: np.ndarray) -> LaneScores:
    """The probe's kernel from one forward pass: value -|Sigma - sigma0|_F^2 / 2,
    gradient -tr((Sigma - sigma0) Sigma_i) and, as information, the Gauss-Newton
    matrix tr(Sigma_i Sigma_j), both from the pass's factor record.  A lane
    with a non-finite value, as where I - B is singular, is rejected."""
    eye = np.eye(spec.p)
    with np.errstate(all="ignore"):
        sigma, record = spec.forward(theta, 1)
        r = sigma - sigma0
        value = -0.5 * np.sum(r * r, axis=(1, 2))
        grad = -record.trace(slice(None), r)
    ok = np.isfinite(value) & np.isfinite(grad).all(axis=1)
    value[~ok] = -np.inf
    return LaneScores(value, np.where(ok, OK, NON_FINITE), grad,
                      lambda lanes: record.trace_products(lanes, eye, eye))


def check_identifiability(spec: SemSpec, theta0: np.ndarray, trials: int = 50,
                          seed: int = 0) -> IdentifiabilityReport:
    """Check the rank condition and probe local injectivity at ``theta0``.

    The rank condition asks for a covariance Jacobian of full column rank q
    at ``theta0``.  The probe minimizes ``|Sigma(theta) - Sigma(theta0)|_F``
    from ``trials`` starts, as lanes of one ``_optimize`` loop on
    ``_distance_scores``.  The starts alternate between perturbations of
    ``theta0``, so that some land back on it and the distance test is
    substantive, and random points in the box.  A minimizer that reproduces
    the covariance (distance below ``_PREIMAGE_TOL``) at least
    ``_WITNESS_MIN_DIST`` from ``theta0`` is a failure witness.
    """
    trials = _doc.integer(trials, "trials", 1)
    rng = np.random.default_rng(_doc.integer(seed, "seed"))
    theta0 = np.asarray(theta0, dtype=float)
    delta0, rank, _ = jacobian_rank(spec, theta0)
    collinear = None
    if rank < spec.q and spec.q >= 2:
        # Surface one offending pair for the report.
        norms = np.linalg.norm(delta0, axis=0)
        unit = delta0 / np.where(norms > 0, norms, 1.0)
        corr = np.abs(unit.T @ unit)
        np.fill_diagonal(corr, 0.0)
        i, j = np.unravel_index(np.argmax(corr), corr.shape)
        if corr[i, j] > 1.0 - 1e-8:
            collinear = (int(min(i, j)), int(max(i, j)))

    starts = [_probe_start(spec, rng) if trial % 2 else np.where(
        spec.positive_mask, theta0 * rng.uniform(0.7, 1.4, size=spec.q),
        theta0 + rng.uniform(-0.5, 0.5, size=spec.q)) for trial in range(trials)]
    sigma0 = spec.sigma(theta0)
    lanes = _optimize(spec, lambda theta, at: _distance_scores(
        spec, theta, sigma0), np.array(starts))
    dist = np.sqrt(-2.0 * lanes.value)
    gap = np.linalg.norm(lanes.theta - theta0, axis=1)
    preimage = dist < _PREIMAGE_TOL
    witnesses = [{"theta": lanes.theta[lane], "sigma_dist": float(dist[lane]),
                  "theta_dist": float(gap[lane])}
                 for lane in np.flatnonzero(preimage & (gap >= _WITNESS_MIN_DIST))]
    return IdentifiabilityReport(
        model=spec.name, q=spec.q, rank=rank, rank_ok=rank == spec.q, trials=trials,
        preimages_found=int(preimage.sum()), witnesses=witnesses,
        collinear_columns=collinear)
