"""Realized quadratic covariation and the quasi-log-likelihood surface.

With increments ``dX_i`` over a uniform grid of n steps on [0, T], the
realized quadratic covariation is ``Q = (1/T) sum_i dX_i dX_i'``.  The
quasi-log-likelihood of a candidate covariance ``Sigma(theta)`` reduces to

    loglik(theta) = n * (-tr(inv(Sigma) Q) - log det Sigma) / 2,

identical (up to floating point) to summing the Gaussian increment
densities, because Q is sufficient for the diffusion part.  Its in-fill
limit replaces Q by the true covariance and drops the n factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .errors import NotPositiveDefiniteError
from .semspec import SemSpec

__all__ = [
    "QuadVar",
    "quad_var",
    "LikelihoodSurface",
    "limit_loglik",
]

_HESSIAN_REL_STEP = 1e-5


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
    if T <= 0:
        raise ValueError("horizon must be positive")
    dx = np.diff(x_obs, axis=0)
    q = dx.T @ dx / T
    # Any non-finite sample reaches Q; checking the p x p result avoids an
    # n-sized temporary.
    if not np.all(np.isfinite(q)):
        raise ValueError("path has non-finite values")
    return QuadVar(q_xx=0.5 * (q + q.T), n=x_obs.shape[0] - 1, T=float(T))


def _score_parts(spec: SemSpec, theta: np.ndarray, target: np.ndarray):
    """Shared core: inv(Sigma), logdet, and trace against ``target``."""
    sigma = spec.sigma(theta)
    logdet, inv = matkit.chol_logdet(sigma)
    value = -0.5 * float(np.sum(inv * target)) - 0.5 * logdet
    return value, inv


def _score_grad(spec: SemSpec, theta: np.ndarray, inv: np.ndarray,
                target: np.ndarray, vech_weights: np.ndarray) -> np.ndarray:
    # d value = tr[(inv @ target @ inv - inv) dSigma] / 2, contracted
    # against the analytic Jacobian in vech coordinates.
    m = inv @ target @ inv - inv
    return 0.5 * (spec.jacobian(theta).T @ (vech_weights * matkit.vech(m)))


class LikelihoodSurface:
    """The quasi-log-likelihood of one candidate model on one dataset.

    Immutable and shareable; evaluations at equal theta are identical.
    ``value``/``grad`` are analytic, ``hessian`` is a central difference of
    the analytic gradient with relative steps.
    """

    def __init__(self, spec: SemSpec, quadvar: QuadVar):
        if quadvar.q_xx.shape != (spec.p, spec.p):
            raise ValueError(
                f"quadratic covariation is {quadvar.q_xx.shape}, "
                f"model observes p={spec.p}")
        self.spec = spec
        self.quadvar = quadvar
        self.n = quadvar.n
        self.h = quadvar.T / quadvar.n
        rows, cols = matkit.vech_indices(spec.p)
        self._w = np.where(rows == cols, 1.0, 2.0)

    def value(self, theta: np.ndarray) -> float:
        v, _ = _score_parts(self.spec, theta, self.quadvar.q_xx)
        return self.n * v

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        v, inv = _score_parts(self.spec, theta, self.quadvar.q_xx)
        g = _score_grad(self.spec, theta, inv, self.quadvar.q_xx, self._w)
        return self.n * v, self.n * g

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.value_and_grad(theta)[1]

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Symmetrized central-difference Hessian of the analytic gradient."""
        theta = np.asarray(theta, dtype=float)
        q = theta.size
        hess = np.empty((q, q))
        for j in range(q):
            step = _HESSIAN_REL_STEP * (1.0 + abs(theta[j]))
            plus, minus = theta.copy(), theta.copy()
            plus[j] += step
            minus[j] -= step
            try:
                g_plus = self.grad(plus)
                g_minus = self.grad(minus)
            except NotPositiveDefiniteError as exc:
                raise NotPositiveDefiniteError(
                    f"hessian probe at coordinate {j} (step {step:g}) left the "
                    f"admissible region: {exc}") from exc
            hess[:, j] = (g_plus - g_minus) / (2.0 * step)
        return 0.5 * (hess + hess.T)


def limit_loglik(spec: SemSpec, theta: np.ndarray, sigma0: np.ndarray) -> float:
    """In-fill limit of the scaled quasi-log-likelihood at ``theta``.

    Equals ``-tr(inv(Sigma(theta)) sigma0)/2 - log det Sigma(theta)/2``; its
    unique maximum over covariances sits at ``Sigma = sigma0``.
    """
    v, _ = _score_parts(spec, theta, np.asarray(sigma0, dtype=float))
    return v
