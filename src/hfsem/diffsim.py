"""Truths of the latent-diffusion SEM, read, checked and simulated here only.

A truth holds the latent OU blocks xi, delta, eps and zeta, the loadings
lambda_x1 and lambda_x2, and the structural matrices gamma and b0.
:func:`load_truth` reads one from its name (the stem of a bundled
``truth_files/*.json`` document) or from such a document, and ends with
the cross-checks :func:`simulate_custom` also runs.  :func:`implied_sigma`
is a truth's covariance Sigma0, computed as an all-fixed ``SemSpec``.

Latent blocks follow affine SDEs ``dx = -(B x - mu) dt + S dW``, sampled
exactly from their Gaussian conditional transitions (the matrix
exponential), so the paths carry no discretization bias.  Observations are
assembled from the latent paths:

    x1 = xi @ L1.T + delta
    eta solves (I - B0) eta = gamma0 xi + zeta
    x2 = eta @ L2.T + eps

The four driving Wiener processes are independent; each block gets its own
RNG substream spawned from the bundle seed, so equal seeds reproduce
bundles bit-for-bit and distinct blocks never share randomness.  Seeds,
grid sizes n and horizons T are read by the one rule of each in ``_doc``.

Paths are streamed: each block yields its path in row chunks, and each
chunk's observations are written into the one preallocated ``x_obs``.
The result is bit-for-bit the whole-path computation (one draw of all
steps, then the recursion), which ``tests/conftest.py`` keeps as the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
import scipy.linalg
import scipy.signal

from . import _doc
from .semspec import SemSpec, _invert_psi

__all__ = [
    "OuBlock",
    "PathBundle",
    "load_truth",
    "implied_sigma",
    "simulate_ou",
    "simulate_custom",
    "simulate_true_model",
    "TRUE_MODEL_NAME",
]

TRUE_MODEL_NAME = "true4-6"

_LATENT = ("xi", "delta", "eps", "zeta")

# Rows per chunk of a streamed path: a chunk's draws, products and
# assembly stay in cache, and no n-sized temporary is made besides the
# returned arrays.
_CHUNK_ROWS = 8192


@dataclass
class OuBlock:
    """One latent block ``dx = -(mean_reversion x - level) dt + dispersion dW``."""
    dim: int
    mean_reversion: np.ndarray
    level: np.ndarray
    dispersion: np.ndarray
    init: np.ndarray

    def __post_init__(self):
        self.dim = _doc.integer(self.dim, "dim", 1)
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


# Checked truths, by the blocks' dimensions and the matrices' bytes: a
# truth is checked once per process, however many paths it drives, and
# one that fails is never stored.  Shared arrays, so read-only.
_CHECKED: dict = {}


def _cross_checked(xi: OuBlock, delta: OuBlock, eps: OuBlock, zeta: OuBlock,
                   lambda_x1, lambda_x2, gamma, b0, where: str = "") -> tuple:
    """``(lambda_x1, lambda_x2, gamma, inv(I - b0))`` as float arrays, after
    the checks of every truth: finite matrices, block dimensions and the
    shapes of gamma and b0 against the loadings, a zero b0 diagonal and a
    nonsingular I - b0.  Messages name the key after the prefix ``where``."""
    blocks = (xi, delta, eps, zeta)
    mats = {key: np.array(value, float, ndmin=2) for key, value in dict(
        lambda_x1=lambda_x1, lambda_x2=lambda_x2, gamma=gamma, b0=b0).items()}
    key = tuple(block.dim for block in blocks) + tuple(
        (value.shape, value.tobytes()) for value in mats.values())
    checked = _CHECKED.get(key)
    if checked is None:
        checked = _check_truth(blocks, mats, where)
        for array in checked:
            array.flags.writeable = False
        _CHECKED[key] = checked
    return checked


def _check_truth(blocks: tuple, mats: dict, where: str) -> tuple:
    """The checks and result of :func:`_cross_checked`."""
    for key, value in mats.items():
        if value.ndim != 2 or not np.all(np.isfinite(value)):
            raise ValueError(f"{where}{key} must be a matrix of finite numbers")
    (p1, k1), (p2, k2) = mats["lambda_x1"].shape, mats["lambda_x2"].shape
    for key, block, dim in zip(_LATENT, blocks, (k1, p1, p2, k2)):
        if block.dim != dim:
            raise ValueError(f"{where}{key} has dimension {block.dim}, "
                             f"expected {dim} by the loadings")
    for key, shape in (("gamma", (k2, k1)), ("b0", (k2, k2))):
        if mats[key].shape != shape:
            raise ValueError(f"{where}{key} has shape {mats[key].shape}, "
                             f"expected {shape}")
    if np.any(np.diag(mats["b0"])):
        raise ValueError(f"{where}b0 must have a zero diagonal")
    return (mats["lambda_x1"], mats["lambda_x2"], mats["gamma"],
            _invert_psi(mats["b0"], f"{where}b0"))


def load_truth(truth) -> dict:
    """A bundled truth's name or a truth document as four :class:`OuBlock`
    and four float matrices (``b0`` and each ``init`` zeros if omitted);
    ``ValueError`` names the ``true_model.<key>`` that breaks a rule."""
    if isinstance(truth, str):
        truth = _doc.read_bundled("truth_files", truth, "true model")
    _doc.fields(truth, "true_model",
                _LATENT + ("lambda_x1", "lambda_x2", "gamma"), ("b0",))
    out = {}
    for key in _LATENT:
        where = f"true_model.{key}"
        block = _doc.fields(truth[key], where,
                            ("mean_reversion", "level", "dispersion"), ("init",))
        arrays = {k: _doc.array(v, f"{where}.{k}") for k, v in block.items()}
        dim = np.atleast_1d(arrays["level"]).size
        try:
            out[key] = OuBlock(dim=dim, **{"init": np.zeros(dim), **arrays})
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    for key in ("lambda_x1", "lambda_x2", "gamma", "b0"):
        if key in truth:
            out[key] = np.atleast_2d(_doc.array(truth[key], f"true_model.{key}"))
    k2 = out["lambda_x2"].shape[1]
    out.setdefault("b0", np.zeros((k2, k2)))
    _cross_checked(**out, where="true_model.")
    return out


def implied_sigma(truth: dict) -> np.ndarray:
    """Sigma0 of a truth from :func:`load_truth`, as an all-fixed SemSpec
    (q = 0), so the one implied-covariance formula computes it."""
    l1, l2 = truth["lambda_x1"], truth["lambda_x2"]
    dims = {"p1": l1.shape[0], "p2": l2.shape[0],
            "k1": l1.shape[1], "k2": l2.shape[1]}
    values = {"lambda_x1": l1, "lambda_x2": l2, "b": truth["b0"],
              "gamma": truth["gamma"]}
    for role, key in zip(("sigma_xixi", "sigma_dd", "sigma_ee", "sigma_zz"),
                         _LATENT):
        values[role] = truth[key].noise_cov
    patterns = {role: [[{"fixed": v} for v in row] for row in a.tolist()]
                for role, a in values.items()}
    spec = SemSpec(dims, patterns, lower=[], upper=[], name="truth")
    return spec.sigma(np.empty(0))


# Exact transitions built so far, by block arrays and step: a grid's
# transitions are built once per process, however many paths use them.
# Their arrays are read-only, since every later path shares them.
_TRANSITIONS: dict = {}


def _exact_transition(block: OuBlock, h: float):
    """:func:`_build_transition` of the block at step ``h``, memoized on the
    arrays it reads and ``h``."""
    key = (h,) + tuple((a.shape, a.tobytes()) for a in
                       (block.mean_reversion, block.level, block.dispersion))
    transition = _TRANSITIONS.get(key)
    if transition is None:
        transition = _build_transition(block, h)
        for array in transition:
            array.flags.writeable = False
        _TRANSITIONS[key] = transition
    return transition


def _build_transition(block: OuBlock, h: float):
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


def _grid_step(n: int, T: float) -> float:
    """The step ``T / n`` of the uniform grid, after checking both inputs."""
    return _doc.horizon(T) / _doc.integer(n, "n", 1)


def _chunk_bounds(rows: int) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` row ranges covering ``range(rows)``.

    Each range has ``_CHUNK_ROWS`` rows except the last, which also takes
    the remainder, so a chunk of a path (``rows >= 2``) never has a single
    row: a one-row matmul runs BLAS's matrix-vector kernel, whose rounding
    differs from the matrix-matrix kernel of a whole-path product.
    """
    starts = range(0, rows, _CHUNK_ROWS)[:max(1, rows // _CHUNK_ROWS)]
    return list(zip(starts, [*starts[1:], rows]))


def _path_chunks(block: OuBlock, n: int, transition: tuple,
                 rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The block's path on the grid, rows 0..n, under its exact
    ``transition`` (``_exact_transition(block, h)``), in the row chunks of
    ``_chunk_bounds(n + 1)``; the first chunk starts with ``block.init``.

    Drawing chunk by chunk consumes ``rng`` exactly as one ``(n, dim)``
    draw does, and the recursion's state is carried from chunk to chunk,
    so the chunks are the rows of the whole-path computation, bit for bit.
    """
    ad, bd, noise = transition
    a = np.diag(ad)
    decoupled = not np.any(ad - np.diag(a))
    x = block.init
    for start, stop in _chunk_bounds(n + 1):
        rows = np.empty((stop - start, block.dim))
        steps = rows
        if start == 0:
            rows[0] = x
            steps = rows[1:]
        u = rng.standard_normal((len(steps), block.dim)) @ noise.T + bd
        if decoupled:
            # One scalar AR(1) filter per coordinate; its state a*x carries
            # the previous row into the chunk.
            for j in range(block.dim):
                steps[:, j], _ = scipy.signal.lfilter(
                    [1.0], [1.0, -a[j]], u[:, j], zi=[a[j] * x[j]])
        else:
            for i, ui in enumerate(u):
                x = ad @ x + ui
                steps[i] = x
        x = rows[-1]
        yield rows


def simulate_ou(block: OuBlock, n: int, T: float,
                rng: np.random.Generator) -> np.ndarray:
    """Sample the block exactly on the grid; returns an (n+1, dim) array."""
    transition = _exact_transition(block, _grid_step(n, T))
    path = np.empty((n + 1, block.dim))
    start = 0
    for rows in _path_chunks(block, n, transition, rng):
        path[start:start + len(rows)] = rows
        start += len(rows)
    return path


def _block_streams(seed: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(_doc.integer(seed, "seed")).spawn(4)
    return [np.random.default_rng(c) for c in children]


def simulate_custom(xi: OuBlock, delta: OuBlock, eps: OuBlock, zeta: OuBlock,
                    lambda_x1: np.ndarray, lambda_x2: np.ndarray,
                    gamma: np.ndarray, b0: np.ndarray, *, n: int, T: float,
                    seed: int, keep_latents: bool = True) -> PathBundle:
    """Simulate a truth laid out as :func:`load_truth` returns it; a truth
    dict is passed as ``simulate_custom(**truth, n=n, T=T, seed=seed)``.
    The arrays first pass the checks :func:`load_truth` ends with.

    The blocks are streamed together chunk by chunk and each chunk's
    observations are written into ``x_obs``; the latent paths are stored
    only with ``keep_latents``.  The blocks' exact transitions are built
    once per truth and grid in a process (see :func:`_exact_transition`),
    and the checks run once per truth (see :func:`_cross_checked`).
    """
    h = _grid_step(n, T)
    blocks = (xi, delta, eps, zeta)
    lambda_x1, lambda_x2, gamma, psi_inv = _cross_checked(
        *blocks, lambda_x1, lambda_x2, gamma, b0)
    (p1, k1), (p2, k2) = lambda_x1.shape, lambda_x2.shape
    psi_inv_t = psi_inv.T
    chunks = zip(*[_path_chunks(block, n, _exact_transition(block, h), rng)
                   for block, rng in zip(blocks, _block_streams(seed))])
    x_obs = np.empty((n + 1, p1 + p2))
    latents = {}
    if keep_latents:
        latents = {name: np.empty((n + 1, dim)) for name, dim in
                   zip(("xi", "delta", "eps", "zeta", "eta"),
                       (k1, p1, p2, k2, k2))}
    start = 0
    for xi, delta, eps, zeta in chunks:
        stop = start + len(xi)
        eta = (xi @ gamma.T + zeta) @ psi_inv_t
        x_obs[start:stop, :p1] = xi @ lambda_x1.T + delta
        x_obs[start:stop, p1:] = eta @ lambda_x2.T + eps
        for name, rows in zip(latents, (xi, delta, eps, zeta, eta)):
            latents[name][start:stop] = rows
        start = stop
    return PathBundle(n=n, T=T, h=h, seed=int(seed), x_obs=x_obs, **latents)


def simulate_true_model(n: int, T: float, seed: int,
                        keep_latents: bool = True) -> PathBundle:
    """Simulate ``TRUE_MODEL_NAME``; deterministic given ``seed``."""
    return simulate_custom(**load_truth(TRUE_MODEL_NAME), n=n, T=T, seed=seed,
                           keep_latents=keep_latents)
