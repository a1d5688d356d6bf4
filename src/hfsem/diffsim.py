"""Simulation of the latent factor diffusions and the observed process.

Latent blocks follow affine SDEs ``dx = -(B x - mu) dt + S dW`` sampled
either exactly (Gaussian conditional transitions from the matrix
exponential) or by Euler-Maruyama.  Observations are assembled from the
latent paths:

    x1 = xi @ L1.T + delta
    eta solves (I - B0) eta = gamma0 xi + zeta
    x2 = eta @ L2.T + eps

The four driving Wiener processes are independent; each block gets its own
RNG substream spawned from the bundle seed, so equal seeds reproduce
bundles bit-for-bit and distinct blocks never share randomness.

This module only simulates.  The diffusion covariance a truth implies is
computed by ``harness.truth_sigma``, which evaluates the truth as an
all-fixed ``SemSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.signal

from .errors import SingularStructureError

__all__ = [
    "OuBlock",
    "PathBundle",
    "simulate_ou",
    "simulate_custom",
    "simulate_true_model",
    "true_blocks",
    "TRUE_MODEL_NAME",
]

TRUE_MODEL_NAME = "true4-6"

_PSI_COND_LIMIT = 1e12


@dataclass
class OuBlock:
    """One latent block ``dx = -(mean_reversion x - level) dt + dispersion dW``.

    ``drift``, when given, replaces the affine drift entirely; such blocks
    can only be simulated with the Euler method.
    """
    dim: int
    mean_reversion: np.ndarray
    level: np.ndarray
    dispersion: np.ndarray
    init: np.ndarray
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.mean_reversion = np.atleast_2d(np.asarray(self.mean_reversion, float))
        self.level = np.atleast_1d(np.asarray(self.level, float))
        self.dispersion = np.atleast_2d(np.asarray(self.dispersion, float))
        self.init = np.atleast_1d(np.asarray(self.init, float))
        d = self.dim
        if self.mean_reversion.shape != (d, d):
            raise ValueError(f"mean_reversion must be {d}x{d}")
        if self.level.shape != (d,) or self.init.shape != (d,):
            raise ValueError(f"level and init must have length {d}")
        if self.dispersion.shape[0] != d:
            raise ValueError(f"dispersion must have {d} rows")
        for name in ("mean_reversion", "level", "dispersion", "init"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has non-finite entries")

    @property
    def noise_cov(self) -> np.ndarray:
        """Instantaneous covariance ``dispersion @ dispersion.T``."""
        return self.dispersion @ self.dispersion.T


@dataclass
class PathBundle:
    """Latent paths and observed samples on the uniform grid t_i = i T/n."""
    n: int
    T: float
    h: float
    seed: int
    x_obs: np.ndarray                       # (n+1, p)
    xi: Optional[np.ndarray] = None         # (n+1, k1)
    delta: Optional[np.ndarray] = None      # (n+1, p1)
    eps: Optional[np.ndarray] = None        # (n+1, p2)
    zeta: Optional[np.ndarray] = None       # (n+1, k2)
    eta: Optional[np.ndarray] = None        # (n+1, k2)

    @property
    def has_latents(self) -> bool:
        return self.xi is not None


def _exact_transition(block: OuBlock, h: float):
    """One-step transition: mean map ``x -> ad x + bd`` and noise factor.

    Uses augmented matrix exponentials, valid for any mean-reversion matrix
    (including singular and non-diagonalizable ones):

        ad = expm(-B h)
        bd = (integral_0^h expm(-B u) du) @ level
        qd = integral_0^h expm(-B u) @ S S' @ expm(-B' u) du
    """
    b = block.mean_reversion
    d = block.dim
    zero = np.zeros((d, d))

    aug = np.block([[-b, np.eye(d)], [zero, zero]]) * h
    top = scipy.linalg.expm(aug)
    ad = top[:d, :d]
    bd = top[:d, d:] @ block.level

    q = block.noise_cov
    van_loan = np.block([[b, q], [zero, -b.T]]) * h
    e = scipy.linalg.expm(van_loan)
    qd = ad @ e[:d, d:]
    qd = 0.5 * (qd + qd.T)

    w, v = np.linalg.eigh(qd)
    noise_factor = v * np.sqrt(np.clip(w, 0.0, None))
    return ad, bd, noise_factor


def _linear_recursion(ad: np.ndarray, u: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Iterate x_{i+1} = ad x_i + u_i; returns the (n+1, d) path."""
    n, d = u.shape
    path = np.empty((n + 1, d))
    path[0] = x0
    off_diag = ad - np.diag(np.diag(ad))
    if np.abs(off_diag).max(initial=0.0) == 0.0:
        # Decoupled coordinates: run each as a scalar AR recursion.
        a = np.diag(ad)
        u = u.copy()
        u[0] += a * x0
        for j in range(d):
            path[1:, j] = scipy.signal.lfilter([1.0], [1.0, -a[j]], u[:, j])
    else:
        x = np.asarray(x0, dtype=float)
        for i in range(n):
            x = ad @ x + u[i]
            path[i + 1] = x
    return path


def simulate_ou(block: OuBlock, n: int, T: float,
                rng: np.random.Generator, method: str = "exact") -> np.ndarray:
    """Sample the block on the grid; returns an (n+1, dim) array.

    ``method="exact"`` draws from the Gaussian conditional law of the
    affine SDE and has no discretization bias.  ``method="euler"`` is the
    Euler-Maruyama scheme and is required for blocks with a custom drift.
    """
    if n < 1:
        raise ValueError("need at least one step")
    if T <= 0:
        raise ValueError("horizon must be positive")
    h = T / n
    if method == "exact":
        if block.drift is not None:
            raise ValueError("exact sampling needs an affine drift; use euler")
        ad, bd, noise_factor = _exact_transition(block, h)
        z = rng.standard_normal((n, block.dim))
        u = z @ noise_factor.T + bd
        return _linear_recursion(ad, u, block.init)
    if method == "euler":
        s = block.dispersion
        z = rng.standard_normal((n, s.shape[1])) * np.sqrt(h)
        if block.drift is None:
            # Affine drift: the Euler step is itself a linear recursion.
            ad = np.eye(block.dim) - block.mean_reversion * h
            u = z @ s.T + block.level * h
            return _linear_recursion(ad, u, block.init)
        path = np.empty((n + 1, block.dim))
        x = block.init.astype(float)
        path[0] = x
        for i in range(n):
            x = x + block.drift(x) * h + s @ z[i]
            path[i + 1] = x
        return path
    raise ValueError(f"unknown method {method!r}")


def _block_streams(seed: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(4)
    return [np.random.default_rng(c) for c in children]


def simulate_custom(xi_block: OuBlock, delta_block: OuBlock,
                    eps_block: OuBlock, zeta_block: OuBlock,
                    lambda_x1: np.ndarray, lambda_x2: np.ndarray,
                    gamma: np.ndarray, b0: Optional[np.ndarray],
                    n: int, T: float, seed: int,
                    method: str = "exact",
                    keep_latents: bool = True) -> PathBundle:
    """Simulate an arbitrary truth given four latent blocks and loadings."""
    lambda_x1 = np.atleast_2d(np.asarray(lambda_x1, float))
    lambda_x2 = np.atleast_2d(np.asarray(lambda_x2, float))
    gamma = np.atleast_2d(np.asarray(gamma, float))
    p1, k1 = lambda_x1.shape
    p2, k2 = lambda_x2.shape
    if b0 is None:
        b0 = np.zeros((k2, k2))
    b0 = np.atleast_2d(np.asarray(b0, float))
    if (xi_block.dim, delta_block.dim, eps_block.dim, zeta_block.dim) != \
            (k1, p1, p2, k2):
        raise ValueError("block dimensions do not match the loading matrices")
    if gamma.shape != (k2, k1) or b0.shape != (k2, k2):
        raise ValueError("gamma / b0 shapes do not match the factor dimensions")
    psi = np.eye(k2) - b0
    if np.linalg.cond(psi) > _PSI_COND_LIMIT:
        raise SingularStructureError("I - b0 is numerically singular")

    streams = _block_streams(seed)
    xi = simulate_ou(xi_block, n, T, streams[0], method)
    delta = simulate_ou(delta_block, n, T, streams[1], method)
    eps = simulate_ou(eps_block, n, T, streams[2], method)
    zeta = simulate_ou(zeta_block, n, T, streams[3], method)

    eta = np.linalg.solve(psi, (xi @ gamma.T + zeta).T).T
    x_obs = np.hstack([xi @ lambda_x1.T + delta, eta @ lambda_x2.T + eps])

    if keep_latents:
        return PathBundle(n=n, T=T, h=T / n, seed=int(seed), x_obs=x_obs,
                          xi=xi, delta=delta, eps=eps, zeta=zeta, eta=eta)
    return PathBundle(n=n, T=T, h=T / n, seed=int(seed), x_obs=x_obs)


# -- the benchmark truth -------------------------------------------------------

def true_blocks() -> dict:
    """Blocks and loadings of the bundled 4+6-dimensional truth.

    One common factor drives the first block; two second-block factors load
    on it with weights (3, 2).  Initial values follow the benchmark setup:
    the common factor starts at 3, all unique factors at 0.
    """
    return {
        "xi": OuBlock(1, [[2.0]], [5.0], [[3.0]], [3.0]),
        "delta": OuBlock(4, np.diag([5.0, 2.0, 1.0, 3.0]), [4.0, 2.0, 1.0, 2.0],
                         np.diag([2.0, 1.0, 2.0, 3.0]), np.zeros(4)),
        "eps": OuBlock(6, np.diag([1.0, 5.0, 2.0, 3.0, 2.0, 2.0]),
                       [2.0, 1.0, 3.0, 2.0, 1.0, 4.0],
                       np.diag([5.0, 1.0, 2.0, 1.0, 3.0, 2.0]), np.zeros(6)),
        "zeta": OuBlock(2, np.diag([3.0, 2.0]), [1.0, 2.0],
                        np.diag([3.0, 1.0]), np.zeros(2)),
        "lambda_x1": np.array([[1.0], [3.0], [4.0], [6.0]]),
        "lambda_x2": np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0],
                               [0.0, 1.0], [0.0, 2.0], [0.0, 4.0]]),
        "gamma": np.array([[3.0], [2.0]]),
        "b0": np.zeros((2, 2)),
    }


def simulate_true_model(n: int, T: float, seed: int,
                        method: str = "exact",
                        keep_latents: bool = True) -> PathBundle:
    """Simulate the bundled truth; deterministic given ``seed``."""
    tb = true_blocks()
    return simulate_custom(tb["xi"], tb["delta"], tb["eps"], tb["zeta"],
                           tb["lambda_x1"], tb["lambda_x2"], tb["gamma"],
                           tb["b0"], n=n, T=T, seed=seed, method=method,
                           keep_latents=keep_latents)
