"""Realized quadratic covariation and the quasi-log-likelihood surface.

With increments ``dX_i`` over a uniform grid of n steps on [0, T], the
realized quadratic covariation is ``Q = (1/T) sum_i dX_i dX_i'``.  The
quasi-log-likelihood of a candidate covariance ``Sigma(theta)`` reduces to

    loglik(theta) = n * (-tr(inv(Sigma) Q) - log det Sigma) / 2,

identical (up to floating point) to summing the Gaussian increment
densities, because Q is sufficient for the diffusion part.  Its in-fill
limit replaces Q by the true covariance and drops the n factor: the
surface of ``QuadVar(sigma0, n=1, T=1)``.

The gradient, the Fisher information and the observed Hessian are all
analytic.  One kernel, :func:`score_lanes`, computes them for a stack of
lanes of one spec, each lane its own theta against its own (Q, n), in one
forward pass of the spec (``SemSpec.forward`` on the stack of theta) and
one Cholesky factorization per lane; the estimator runs many fits through
it at once.  :class:`LikelihoodSurface` is its one-lane case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import NotPositiveDefiniteError, SingularStructureError
from .semspec import SemSpec, _swap

__all__ = [
    "QuadVar",
    "quad_var",
    "LikelihoodSurface",
    "LaneScores",
    "score_lanes",
    "fisher_information",
]


@dataclass
class QuadVar:
    """Realized quadratic covariation with its grid metadata."""
    q_xx: np.ndarray
    n: int
    T: float


def quad_var(x_obs: np.ndarray, T: float) -> QuadVar:
    """Realized quadratic covariation of sampled paths (rows = grid points)."""
    x_obs = np.asarray(x_obs, dtype=float)
    if x_obs.ndim != 2 or x_obs.shape[0] < 2:
        raise ValueError("need at least two rows of observations")
    if x_obs.shape[1] == 0:
        raise ValueError("path has no observed columns")
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"horizon must be positive and finite, got {T}")
    dx = np.diff(x_obs, axis=0)
    with np.errstate(invalid="ignore", over="ignore"):
        q = dx.T @ dx / T
    # Any non-finite sample reaches Q; checking the p x p result avoids an
    # n-sized temporary.
    if not np.all(np.isfinite(q)):
        raise ValueError("path has non-finite values")
    return QuadVar(q_xx=0.5 * (q + q.T), n=x_obs.shape[0] - 1, T=float(T))


def _trace_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (..., q, q) stack of ``tr(a[..., i] @ b[..., j])`` for stacks of
    q p x p matrices."""
    shape = a.shape[:-2] + (a.shape[-2] * a.shape[-1],)
    return a.reshape(shape) @ _swap(_swap(b).reshape(shape))


def fisher_information(d_sigma: np.ndarray, sigma_inv: np.ndarray) -> np.ndarray:
    """Fisher information per increment,
    ``tr(inv(Sigma) Sigma_i inv(Sigma) Sigma_j) / 2``, for the derivative
    stack ``d_sigma[i] = dSigma/dtheta_i``; a leading lane axis on both
    arguments gives one information per lane.

    This is ``Delta' W Delta`` with ``Delta`` the vech Jacobian and
    ``W = D' (inv(Sigma) kron inv(Sigma)) D / 2``, ``D`` the duplication
    matrix, computed on the p x p stack instead.
    """
    a = sigma_inv[..., None, :, :] @ d_sigma
    info = 0.5 * _trace_products(a, a)
    return 0.5 * (info + _swap(info))


# Why the kernel rejects a lane.
OK, SINGULAR, NOT_POSITIVE_DEFINITE, NON_FINITE = range(4)


class LaneScores:
    """One kernel pass over B lanes of one spec (see :func:`score_lanes`).

    ``value`` (B,) is -inf on a rejected lane and ``status`` says why;
    ``grad`` (B, q) and ``hessian`` (B, q, q) are present up to the pass's
    order.  :meth:`information` gives the Fisher information of chosen
    lanes from what the pass kept, with no second forward pass.
    """

    def __init__(self, value, status, grad, hessian, n, d1, inv):
        self.value = value
        self.status = status
        self.grad = grad
        self.hessian = hessian
        self._n, self._d1, self._inv = n, d1, inv

    @property
    def ok(self) -> np.ndarray:
        return self.status == OK

    def information(self, lanes: np.ndarray) -> np.ndarray:
        """n * ``fisher_information`` of the given lanes, (len, q, q)."""
        return (self._n[lanes][:, None, None]
                * fisher_information(self._d1[lanes], self._inv[lanes]))


def score_lanes(spec: SemSpec, theta: np.ndarray, q_xx: np.ndarray,
                n: np.ndarray, order: int = 1) -> LaneScores:
    """The likelihood kernel: lane b is ``theta[b]`` against
    ``(q_xx[b], n[b])``, all of one spec, in one forward pass of the stack.

    Up to ``order`` it gives each lane's value, gradient
    ``n tr(M dSigma_i) / 2`` with ``M = inv Q inv - inv``, and observed
    Hessian ``n [tr(dM_j Sigma_i) + tr(M Sigma_ij)] / 2`` with
    ``dM_j = inv Sigma_j inv - 2 sym(inv Sigma_j inv Q inv)``; the Fisher
    information comes from :meth:`LaneScores.information`.  A lane outside
    the admissible region (I - B singular, Sigma not positive definite, a
    non-finite value or gradient) is rejected on its own and raises
    nothing.  Every step acts on one lane at a time, so a lane's results
    are bit-identical whichever lanes share its pass.
    """
    theta = np.asarray(theta, dtype=float)
    q_xx = np.asarray(q_xx, dtype=float)
    n = np.asarray(n, dtype=float)
    p = spec.p
    with np.errstate(all="ignore"):
        finite = np.isfinite(theta).all(axis=1)
        if not finite.all():
            theta = np.where(finite[:, None], theta, 0.0)
        out = spec.forward(theta, order)
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
        grad = hessian = d1 = None
        if order >= 1:
            d1 = out[1]
            r = inv @ q_xx @ inv
            m = (r - inv).reshape(len(n), p * p, 1)
            grad = 0.5 * n[:, None] * (
                d1.reshape(len(n), spec.q, p * p) @ m)[..., 0]
            good &= np.isfinite(grad).all(axis=1)
        if order >= 2:
            a = inv[:, None] @ d1
            dm = (_trace_products(a, a)
                  - 2.0 * _trace_products(a, r[:, None] @ d1))
            d2m = out[2].reshape(len(n), spec.q ** 2, p * p) @ m
            hessian = 0.5 * n[:, None, None] * (dm + d2m.reshape(dm.shape))
            hessian = 0.5 * (hessian + _swap(hessian))
            good &= np.isfinite(hessian).all(axis=(1, 2))
    status[(status == OK) & ~good] = NON_FINITE
    value[status != OK] = -np.inf
    return LaneScores(value, status, grad, hessian, n, d1, inv)


class LikelihoodSurface:
    """The quasi-log-likelihood of one candidate model on one dataset.

    Immutable and shareable; evaluations at equal theta are identical.
    Each method is the one-lane case of :func:`score_lanes`, so it agrees
    bit for bit with the same lane in any stack; a theta outside the
    admissible region raises ``SingularStructureError`` or
    ``NotPositiveDefiniteError``.
    """

    def __init__(self, spec: SemSpec, quadvar: QuadVar):
        if quadvar.q_xx.shape != (spec.p, spec.p):
            raise ValueError(
                f"quadratic covariation is {quadvar.q_xx.shape}, "
                f"model observes p={spec.p}")
        self.spec = spec
        self.quadvar = quadvar
        self.n = quadvar.n

    def _one_lane(self, theta: np.ndarray, order: int) -> LaneScores:
        theta = self.spec._check_theta(theta)
        lane = score_lanes(self.spec, theta[None], self.quadvar.q_xx[None],
                           np.array([self.n]), order)
        status = lane.status[0]
        if status == SINGULAR:
            raise SingularStructureError(
                f"I - b of model {self.spec.name!r} is numerically singular")
        if status != OK:
            raise NotPositiveDefiniteError(
                "Sigma(theta) is not positive definite" if
                status == NOT_POSITIVE_DEFINITE else
                "the likelihood is not finite at theta")
        return lane

    def value(self, theta: np.ndarray) -> float:
        return float(self._one_lane(theta, 0).value[0])

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        lane = self._one_lane(theta, 1)
        return float(lane.value[0]), lane.grad[0]

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.value_and_grad(theta)[1]

    def score(self, theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """``value_and_grad`` and the information n * ``fisher_information``."""
        lane = self._one_lane(theta, 1)
        return float(lane.value[0]), lane.grad[0], lane.information([0])[0]

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Analytic observed Hessian (see :func:`score_lanes`)."""
        return self._one_lane(theta, 2).hessian[0]
