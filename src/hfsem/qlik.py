"""Realized quadratic covariation and the quasi-log-likelihood surface.

With increments ``dX_i`` over a uniform grid of n steps on [0, T], the
realized quadratic covariation is ``Q = (1/T) sum_i dX_i dX_i'``, held
with n and T by a :class:`QuadVar` that checks all three (Q, which any
non-finite sample reaches, must be finite and symmetric).
:func:`quad_var` sums the increments' Gram over blocks of rows of the
path, each differenced into one reused buffer, so between a path and its
Q no other n-sized array is made.  The quasi-log-likelihood of a
candidate covariance ``Sigma(theta)`` reduces to

    loglik(theta) = n * (-tr(inv(Sigma) Q) - log det Sigma) / 2,

identical (up to floating point) to summing the Gaussian increment
densities, because Q is sufficient for the diffusion part.  Its in-fill
limit replaces Q by the true covariance and drops the n factor, which is
the quasi-log-likelihood of sigma0 as the ``QuadVar`` of one increment
(``qmle.limit_optimum`` maximizes it).

The gradient, the Fisher information and the observed Hessian are all
analytic.  One kernel, :func:`score_lanes`, computes them for a stack of
lanes of one spec, each lane its own theta against its own (Q, n), in one
forward pass of the spec (``SemSpec.forward`` on the stack of theta) and
one Cholesky factorization per lane, all three from the pass's factor
record in factor space (the Hessian adds the pass's second-derivative
term), and the information and the Hessian only for the lanes that ask,
each summed, scaled and symmetrized in one (lanes, q, q) stack.
The estimator runs many fits through it at once, and each fit's Hessian
is the one its last accepted pass gives.  :class:`LikelihoodSurface` is
its one-lane case, which of the estimator's entries only ``qmle.fit`` takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _doc, matkit
from .errors import NotPositiveDefiniteError, SingularStructureError
from .semspec import SemSpec, _swap

__all__ = [
    "QuadVar",
    "quad_var",
    "LikelihoodSurface",
    "LaneScores",
    "score_lanes",
]


@dataclass
class QuadVar:
    """Realized covariation Q over n increments of [0, T]; checks itself."""
    q_xx: np.ndarray
    n: int
    T: float

    def __post_init__(self):
        self.q_xx = matkit.check_symmetric(self.q_xx)
        self.n = _doc.integer(self.n, "n", 1)
        self.T = _doc.horizon(self.T)


# Increments per block of the Gram sum in ``quad_var``: its one buffer is
# 2.6 MB at p = 10.  Not smaller than the simulator's working set: freeing
# the buffer raises glibc's mmap and trim thresholds above a chunk's
# temporaries, which a smaller one would leave to be mapped and faulted
# in anew on every chunk of the next path.
_GRAM_BLOCK = 1 << 15


def quad_var(x_obs: np.ndarray, T: float) -> QuadVar:
    """Realized quadratic covariation of sampled paths (rows = grid points).

    The increment Gram is summed block by block, each block the increments
    of ``_GRAM_BLOCK + 1`` rows (a block's last row is the next one's
    first), differenced into one reused ``(min(n, _GRAM_BLOCK), p)``
    buffer, so besides the path only that buffer is held.  A path of at
    most ``_GRAM_BLOCK`` increments is one block, whose Q is that of the
    whole-path product bit for bit.
    """
    x_obs = np.asarray(x_obs, dtype=float)
    if x_obs.ndim != 2 or x_obs.shape[0] < 2:
        raise ValueError("need at least two rows of observations")
    if x_obs.shape[1] == 0:
        raise ValueError("path has no observed columns")
    T = _doc.horizon(T)
    n = x_obs.shape[0] - 1
    gram = np.zeros((x_obs.shape[1],) * 2)
    buffer = np.empty((min(n, _GRAM_BLOCK), x_obs.shape[1]))
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, n, _GRAM_BLOCK):
            dx = buffer[:min(_GRAM_BLOCK, n - start)]
            stop = start + len(dx)
            np.subtract(x_obs[start + 1:stop + 1], x_obs[start:stop], out=dx)
            gram += dx.T @ dx
        q = gram / T
    return QuadVar(q_xx=q, n=n, T=T)


# Why the kernel rejects a lane.
OK, SINGULAR, NOT_POSITIVE_DEFINITE, NON_FINITE = range(4)


class LaneScores:
    """One kernel pass over B lanes of one spec (see :func:`score_lanes`).

    ``value`` (B,) is -inf on a rejected lane and ``status`` says why;
    ``grad`` (B, q) is present at order 1.  :meth:`information` and
    :meth:`hessian` give those of chosen lanes from what the pass kept,
    with no second forward pass, so a lane pays for them only when asked;
    ``hessian`` gives None for a pass that keeps no second-order term.
    """

    def __init__(self, value, status, grad, information=None, hessian=None):
        self.value = value
        self.status = status
        self.grad = grad
        self._information, self._hessian = information, hessian

    @property
    def ok(self) -> np.ndarray:
        return self.status == OK

    def require(self, lane: int, model: str) -> None:
        """Raise ``SingularStructureError`` or ``NotPositiveDefiniteError``
        if ``lane`` was rejected; ``model`` names the spec."""
        status = self.status[lane]
        if status == SINGULAR:
            raise SingularStructureError(
                f"I - b of model {model!r} is numerically singular")
        if status != OK:
            raise NotPositiveDefiniteError(
                "Sigma(theta) is not positive definite" if
                status == NOT_POSITIVE_DEFINITE else
                "the likelihood is not finite at theta")

    def information(self, lanes) -> np.ndarray:
        """The information of the given lanes, (len, q, q)."""
        return _symmetrized(self._information, lanes)

    def hessian(self, lanes) -> np.ndarray | None:
        """The observed Hessian of the given lanes, (len, q, q), or None."""
        return None if self._hessian is None else _symmetrized(self._hessian, lanes)


def _symmetrized(term, lanes) -> np.ndarray:
    """``term(lanes)``, a (len, q, q) stack, symmetrized: ``x + x'``
    halved in place."""
    with np.errstate(all="ignore"):
        x = term(lanes)
    out = x + _swap(x)
    out *= 0.5
    return out


def score_lanes(spec: SemSpec, theta: np.ndarray, q_xx: np.ndarray,
                n: np.ndarray, order: int = 1) -> LaneScores:
    """The likelihood kernel: lane b is ``theta[b]`` against
    ``(q_xx[b], n[b])``, all of one spec, in one forward pass of the stack.

    It gives each lane's value and, at order 1, its gradient
    ``n tr(M Sigma_i) / 2`` with ``M = R - inv`` and ``R = inv Q inv``,
    from the pass's factor record (``SemSpec.forward``); from the same
    record and second-order term, :meth:`LaneScores.information` gives the
    Fisher information ``n tr(inv Sigma_i inv Sigma_j) / 2`` and
    :meth:`LaneScores.hessian` the observed Hessian ``n [tr(inv Sigma_i
    (inv - 2R) Sigma_j) + tr(M Sigma_ij)] / 2`` of the lanes asked for,
    and of no others.  A lane outside the admissible region (I - B
    singular, Sigma not positive definite, a non-finite value or gradient)
    is rejected on its own and raises nothing.  Every step acts on one
    lane at a time, so a lane's results are bit-identical whichever lanes
    share its pass.
    """
    theta = np.asarray(theta, dtype=float)
    q_xx = np.asarray(q_xx, dtype=float)
    n = np.asarray(n, dtype=float)
    p = spec.p
    with np.errstate(all="ignore"):
        finite = np.isfinite(theta).all(axis=1)
        if not finite.all():
            theta = np.where(finite[:, None], theta, 0.0)
        out = spec.forward(theta, 2 if order else 0)
        sigma = out[0]
        status = np.full(len(n), OK)
        finite &= np.isfinite(sigma).all(axis=(1, 2))
        if not finite.all():
            status[~finite] = NON_FINITE
            status[np.isnan(sigma).all(axis=(1, 2))] = SINGULAR
            sigma = np.where(finite[:, None, None], sigma, np.eye(p))
        logdet, inv, info = matkit._chol_lanes(sigma)
        status[(status == OK) & (info != 0)] = NOT_POSITIVE_DEFINITE
        value = n * (-0.5 * np.sum(inv * q_xx, axis=(1, 2)) - 0.5 * logdet)
        good = np.isfinite(value)
        grad = information = hessian = None
        if order:
            _, record, second = out
            r = inv @ q_xx @ inv
            grad = 0.5 * n[:, None] * record.trace(slice(None), r - inv)
            good &= np.isfinite(grad).all(axis=1)

            # Each term accumulates and scales its (len, q, q) stack in
            # place: the values of ``0.5 n (a + b)``, one stack held.
            def information(lanes):
                s = inv[lanes]
                out = record.trace_products(lanes, s, s)
                out *= 0.5 * n[lanes][:, None, None]
                return out

            def hessian(lanes):
                s, r_ = inv[lanes], r[lanes]
                t, m = s - 2.0 * r_, r_ - s
                del r_
                out = record.trace_products(lanes, s, t)
                del s, t
                out += second(lanes, m)
                out *= 0.5 * n[lanes][:, None, None]
                return out
    status[(status == OK) & ~good] = NON_FINITE
    value[status != OK] = -np.inf
    return LaneScores(value, status, grad, information, hessian)


class LikelihoodSurface:
    """The quasi-log-likelihood of one candidate model on one dataset.

    Immutable and shareable; evaluations at equal theta are identical.
    Each method is the one-lane case of :func:`score_lanes`, so it agrees
    bit for bit with the same lane in any stack; a theta outside the
    admissible region raises ``SingularStructureError`` or
    ``NotPositiveDefiniteError``.  A Q that is not (p, p) is refused when
    the surface is built, by the spec's shape rule.
    """

    def __init__(self, spec: SemSpec, quadvar: QuadVar):
        spec.check_covariation(quadvar.q_xx, "quadratic covariation")
        self.spec = spec
        self.quadvar = quadvar
        self.n = quadvar.n

    def _one_lane(self, theta: np.ndarray, order: int) -> LaneScores:
        theta = self.spec._check_theta(theta)
        lane = score_lanes(self.spec, theta[None], self.quadvar.q_xx[None],
                           np.array([self.n]), order)
        lane.require(0, self.spec.name)
        return lane

    def value(self, theta: np.ndarray) -> float:
        return float(self._one_lane(theta, 0).value[0])

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        lane = self._one_lane(theta, 1)
        return float(lane.value[0]), lane.grad[0]

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.value_and_grad(theta)[1]

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Analytic observed Hessian (see :func:`score_lanes`)."""
        hessian = self._one_lane(theta, 1).hessian([0])[0]
        if not np.all(np.isfinite(hessian)):
            raise NotPositiveDefiniteError("the likelihood is not finite at theta")
        return hessian
