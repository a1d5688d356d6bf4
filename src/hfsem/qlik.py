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
analytic, with one pass per evaluation: one forward pass of the spec
(``SemSpec.forward``) and one Cholesky factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matkit
from .semspec import SemSpec

__all__ = [
    "QuadVar",
    "quad_var",
    "LikelihoodSurface",
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
    """The q x q matrix of ``tr(a[i] @ b[j])`` for stacks of p x p matrices."""
    q = a.shape[0]
    return a.reshape(q, -1) @ np.swapaxes(b, 1, 2).reshape(q, -1).T


def fisher_information(d_sigma: np.ndarray, sigma_inv: np.ndarray) -> np.ndarray:
    """Fisher information per increment,
    ``tr(inv(Sigma) Sigma_i inv(Sigma) Sigma_j) / 2``, for the derivative
    stack ``d_sigma[i] = dSigma/dtheta_i``.

    This is ``Delta' W Delta`` with ``Delta`` the vech Jacobian and
    ``W = D' (inv(Sigma) kron inv(Sigma)) D / 2``, ``D`` the duplication
    matrix, computed on the p x p stack instead.
    """
    a = sigma_inv @ d_sigma
    info = 0.5 * _trace_products(a, a)
    return 0.5 * (info + info.T)


def _loglik(sigma: np.ndarray, target: np.ndarray):
    """Per-increment value against ``target`` and inv(Sigma)."""
    logdet, inv = matkit._chol_logdet(sigma)
    return -0.5 * float(np.sum(inv * target)) - 0.5 * logdet, inv


class LikelihoodSurface:
    """The quasi-log-likelihood of one candidate model on one dataset.

    Immutable and shareable; evaluations at equal theta are identical.
    ``value``/``grad``, ``score`` (adding the Fisher information) and the
    observed ``hessian`` are analytic, with one pass per evaluation: one
    forward pass of the spec (second order for the Hessian) and one
    Cholesky factorization.
    """

    def __init__(self, spec: SemSpec, quadvar: QuadVar):
        if quadvar.q_xx.shape != (spec.p, spec.p):
            raise ValueError(
                f"quadratic covariation is {quadvar.q_xx.shape}, "
                f"model observes p={spec.p}")
        self.spec = spec
        self.quadvar = quadvar
        self.n = quadvar.n

    def value(self, theta: np.ndarray) -> float:
        v, _ = _loglik(self.spec.sigma(theta), self.quadvar.q_xx)
        return self.n * v

    def _first_order(self, theta: np.ndarray) -> tuple:
        # d value = n tr(M dSigma) / 2, M = inv Q inv - inv.
        sigma, d1 = self.spec.forward(theta, 1)
        v, inv = _loglik(sigma, self.quadvar.q_xx)
        m = inv @ self.quadvar.q_xx @ inv - inv
        return self.n * v, 0.5 * self.n * np.tensordot(d1, m, 2), d1, inv

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self._first_order(theta)[:2]

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.value_and_grad(theta)[1]

    def score(self, theta: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """``value_and_grad`` and the information n * ``fisher_information``."""
        value, grad, d1, inv = self._first_order(theta)
        return value, grad, self.n * fisher_information(d1, inv)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Analytic observed Hessian, the derivative of ``n tr(M Sigma_i)/2``:
        ``n [tr(dM_j Sigma_i) + tr(M Sigma_ij)] / 2`` with
        ``dM_j = inv Sigma_j inv - 2 sym(inv Sigma_j inv Q inv)``."""
        sigma, d1, d2 = self.spec.forward(theta, 2)
        _, inv = matkit._chol_logdet(sigma)
        r = inv @ self.quadvar.q_xx @ inv
        a = inv @ d1
        dm = _trace_products(a, a) - 2.0 * _trace_products(a, r @ d1)
        hess = 0.5 * self.n * (dm + np.tensordot(d2, r - inv, 2))
        return 0.5 * (hess + hess.T)

