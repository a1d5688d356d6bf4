"""Truths of the latent-diffusion SEM, read, checked and simulated here only.

A :class:`Truth` holds the latent OU blocks (:class:`OuBlock`) xi, delta,
eps and zeta, the loadings lambda_x1 and lambda_x2, and the structural
matrices gamma and b0.  Truths and blocks are checked when they are built
and keep read-only arrays, so :func:`simulate_custom` checks only its type.
:func:`load_truth` reads one from its name (the stem of a bundled
``truth_files/*.json`` document) or from such a document.
:func:`implied_sigma` is its covariance Sigma0, as an all-fixed ``SemSpec``.

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

Paths are streamed.  A path's n steps are cut into the fewest chunks of
at most ``_CHUNK_ROWS`` steps, sizes differing by one at most, the
longer ones first (:func:`_chunk_bounds`), and :func:`simulate_custom`
is the one loop over them.  A chunk ``(start, stop)`` draws
``stop - start`` normals per block, solves each block from its row
``start`` (``init``, or the last row of the chunk before) and writes rows
``start`` to ``stop`` into the preallocated outputs, row ``start`` again
with the same bits: the first chunk is not a special case.  No array of
a chunk outlives its pass: a block's normals are freed as soon as its
drive is formed, observations are summed straight into ``x_obs``, and
the rows carried to the next chunk are copies, not views that would keep
the solves alive.  So besides the outputs a pass holds one chunk's
solves and the next chunk's normals, at most ``_CHUNK_ROWS`` steps each,
whatever n.  The calling thread allocates each chunk's normal arrays
(:func:`_normals`), and a draw only fills them in place
(:func:`_draw`).  A decoupled block (diagonal mean reversion) steps each
coordinate by the AR(1) recursion ``x_i = decay x_{i-1} + u_i``, and a
chunk of it is one banded triangular solve (BLAS ``dtbsv``) over all its
coordinates; each step rounds the product and the sum apart, as an AR(1)
filter does.  A coupled block runs a step loop.  The result is
bit-for-bit the whole-path computation (one draw of all steps, then the
recursion) that ``tests/conftest.py`` keeps as reference.

In a path of two or more chunks (n above ``_CHUNK_ROWS``), the calling
thread and one helper thread share the draws of the next chunk's normals
while the calling thread solves and assembles the current chunk: NumPy's
fill releases the interpreter lock, and the solve holds it.  The four
blocks' draws are claims on a list the calling thread owns.  The helper,
on a one-worker executor, pops them largest first during the pass; when
the pass is done the calling thread pops and draws each one the helper
has not started, then waits only for the block in progress.  Each
block's generator is used by one thread at a time, in the order of the
serial draws, so the path does not depend on which thread drew what.
Both threads fill arrays the calling thread allocated and the helper
allocates none, so it never grows a malloc arena of its own, which would
keep about 2 MB resident for the life of the process after a long path.
The executor is shut down before the call returns or raises, and a
one-chunk path opens none.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
import scipy.linalg

from . import _doc
from .semspec import SemSpec, _invert_psi

__all__ = [
    "OuBlock",
    "PathBundle",
    "Truth",
    "load_truth",
    "implied_sigma",
    "simulate_custom",
    "simulate_true_model",
    "TRUE_MODEL_NAME",
    "LATENT_PATHS",
]

TRUE_MODEL_NAME = "true4-6"

_LATENT = ("xi", "delta", "eps", "zeta")
# The latent paths a bundle keeps, in the order of its fields and of a
# path CSV's columns: the four blocks, then eta.
LATENT_PATHS = (*_LATENT, "eta")
_MATRICES = ("lambda_x1", "lambda_x2", "gamma", "b0")
_BLOCK = ("mean_reversion", "level", "dispersion", "init")

# The most steps in a chunk of a streamed path (its rows are one more: the
# row it starts from): a chunk's draws, products and assembly stay in
# cache, and no n-sized temporary is made besides the returned arrays.
_CHUNK_ROWS = 8192


class _Frozen:
    """A frozen dataclass of read-only float arrays, checked as it is built."""

    def _keep(self, key: str, ndmin: int) -> np.ndarray:
        value = np.array(getattr(self, key), float, ndmin=ndmin)
        value.flags.writeable = False
        object.__setattr__(self, key, value)
        return value

    def __reduce__(self):  # built anew: numpy unpickles arrays writeable
        return type(self), tuple(getattr(self, f.name)
                                 for f in fields(self) if f.init)


@dataclass(frozen=True, eq=False)
class OuBlock(_Frozen):
    """One latent block ``dx = -(mean_reversion x - level) dt + dispersion dW``
    from ``init`` (zeros if omitted), of dimension ``level.size``."""
    mean_reversion: np.ndarray
    level: np.ndarray
    dispersion: np.ndarray
    init: Optional[np.ndarray] = None
    _key: tuple = field(init=False, repr=False)  # of its memoized transitions

    def __post_init__(self):
        if self.init is None:
            object.__setattr__(self, "init", np.zeros(np.size(self.level)))
        for name, ndmin in zip(_BLOCK, (2, 1, 2, 1)):
            self._keep(name, ndmin)
        if not (d := self.dim):
            raise ValueError("level must not be empty")
        if self.mean_reversion.shape != (d, d):
            raise ValueError(f"mean_reversion must be {d}x{d}")
        if self.level.shape != (d,) or self.init.shape != (d,):
            raise ValueError(f"level and init must have length {d}")
        if self.dispersion.ndim != 2 or self.dispersion.shape[0] != d:
            raise ValueError(f"dispersion must be a {d}-row matrix")
        for name in _BLOCK:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "_key", tuple((a.shape, a.tobytes()) for a in (
            self.mean_reversion, self.level, self.dispersion)))

    @property
    def dim(self) -> int:
        return self.level.size

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


@dataclass(frozen=True, eq=False)
class Truth(_Frozen):
    """Four latent blocks, the loadings and the structural matrices,
    checked as they are built (messages name ``true_model.<key>``) and kept
    as read-only float copies beside ``psi_inv = inv(I - b0)``: a truth is
    checked once, however many paths it drives."""
    xi: OuBlock
    delta: OuBlock
    eps: OuBlock
    zeta: OuBlock
    lambda_x1: np.ndarray
    lambda_x2: np.ndarray
    gamma: np.ndarray
    b0: np.ndarray
    psi_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for key in _MATRICES:
            value = self._keep(key, 2)
            if value.ndim != 2 or not np.all(np.isfinite(value)):
                raise ValueError(
                    f"true_model.{key} must be a matrix of finite numbers")
        (p1, k1), (p2, k2) = self.lambda_x1.shape, self.lambda_x2.shape
        for key, dim in zip(_LATENT, (k1, p1, p2, k2)):
            if (got := getattr(self, key).dim) != dim:
                raise ValueError(f"true_model.{key} has dimension {got}, "
                                 f"expected {dim} by the loadings")
        for key, shape in (("gamma", (k2, k1)), ("b0", (k2, k2))):
            if (got := getattr(self, key).shape) != shape:
                raise ValueError(f"true_model.{key} has shape {got}, "
                                 f"expected {shape}")
        if np.any(np.diag(self.b0)):
            raise ValueError("true_model.b0 must have a zero diagonal")
        object.__setattr__(self, "psi_inv", _invert_psi(self.b0, "true_model.b0"))
        self._keep("psi_inv", 2)


def load_truth(truth) -> Truth:
    """A bundled truth's name or a truth document as a :class:`Truth`
    (``b0`` and each ``init`` zeros if omitted); ``ValueError`` names the
    ``true_model.<key>`` that breaks a rule."""
    if isinstance(truth, str):
        truth = _doc.read_bundled("truth_files", truth, "true model")
    _doc.fields(truth, "true_model",
                _LATENT + ("lambda_x1", "lambda_x2", "gamma"), ("b0",))
    out = {}
    for key in _LATENT:
        where = f"true_model.{key}"
        block = _doc.fields(truth[key], where, _BLOCK[:3], _BLOCK[3:])
        arrays = {k: _doc.array(v, f"{where}.{k}") for k, v in block.items()}
        try:
            out[key] = OuBlock(**arrays)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    for key in _MATRICES:
        if key in truth:
            out[key] = np.atleast_2d(_doc.array(truth[key], f"true_model.{key}"))
    k2 = out["lambda_x2"].shape[1]
    out.setdefault("b0", np.zeros((k2, k2)))
    return Truth(**out)


def implied_sigma(truth: Truth) -> np.ndarray:
    """Sigma0 of a truth, as an all-fixed SemSpec (q = 0), so the one
    implied-covariance formula computes it."""
    l1, l2 = truth.lambda_x1, truth.lambda_x2
    dims = {"p1": l1.shape[0], "p2": l2.shape[0],
            "k1": l1.shape[1], "k2": l2.shape[1]}
    values = {"lambda_x1": l1, "lambda_x2": l2, "b": truth.b0,
              "gamma": truth.gamma}
    for role, key in zip(("sigma_xixi", "sigma_dd", "sigma_ee", "sigma_zz"),
                         _LATENT):
        values[role] = getattr(truth, key).noise_cov
    patterns = {role: [[{"fixed": v} for v in row] for row in a.tolist()]
                for role, a in values.items()}
    spec = SemSpec(dims, patterns, lower=[], upper=[], name="truth")
    return spec.sigma(np.empty(0))


# Exact transitions built so far, by step and block key: each is built once
# per process, however many paths share it, so its arrays are read-only.
_TRANSITIONS: dict = {}


def _exact_transition(block: OuBlock, h: float):
    """:func:`_build_transition` at step ``h``, memoized on ``h`` and the
    block's key, plus ``diag(ad)`` for a diagonal ``ad`` (else None)."""
    transition = _TRANSITIONS.get((h, block._key))
    if transition is None:
        ad, bd, noise = _build_transition(block, h)
        decay = None if np.any(ad - np.diag(np.diag(ad))) else np.diag(ad)
        transition = _TRANSITIONS[h, block._key] = (ad, bd, noise, decay)
        for array in (ad, bd, noise):
            array.flags.writeable = False
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


def _chunk_bounds(steps: int) -> list[tuple[int, int]]:
    """The path's ``steps`` (at least one) cut into the fewest consecutive
    ``(start, stop)`` ranges of at most ``_CHUNK_ROWS`` steps, sizes
    differing by one at most, the longer ones first.

    A chunk is solved from row ``start`` into rows ``start`` to ``stop``,
    so it has two rows or more: a one-row matmul would run BLAS's
    matrix-vector kernel, whose rounding differs from the matrix-matrix
    kernel of a whole-path product.  The longer chunks come first so that
    a path's chunk arrays change size once: each later chunk fits in the
    heap blocks an earlier one freed.  Lengths that alternate (cuts at
    ``steps * i // count``) let glibc's heap grow by about 0.5 MB over 120
    paths of 10**6 steps.
    """
    count = -(-steps // _CHUNK_ROWS)
    size, extra = divmod(steps, count)
    cuts = [i * size + min(i, extra) for i in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def _chunk_path(transition: tuple, x: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """The ``(len(z) + 1, dim)`` path from row ``x``, one exact step per row
    of standard normals ``z``: a step loop if the block is coupled, else
    one banded solve.  Row 0 is ``x`` itself, bit for bit: the block's
    ``init`` or the last row of its previous chunk, which
    :func:`_chunk_pass` writes again with the same bits.

    The solve's ``(dim, m)`` drive holds ``x`` in column 0 and the steps'
    drive ``noise z + bd`` after it.  Each coordinate's recursion
    ``x_i = decay x_{i-1} + u_i`` is then a unit lower-bidiagonal system,
    the transpose of :func:`_decay_band`'s, which one ``dtbsv`` call solves
    for all coordinates in place.  Each step subtracts a product of length
    one, ``u_i - (-decay) x_{i-1}``: the multiply and the add that an AR(1)
    filter rounds, with no fused multiply-add, so the path is the filter's
    bit for bit.  ``x`` is an unknown of the system, not folded into
    ``u_1``, so a path carried over chunks is exact too.  The band is
    built for the call and dropped with it, and the path returned is a
    transposed view of the solution.

    ``z`` is dropped as soon as the drive is formed, so the caller, which
    passes its only reference (:func:`_chunk_pass` pops it from the
    chunk's list of normals), frees the normals before the solve.
    """
    ad, bd, noise, decay = transition
    if decay is None:
        path = np.empty((len(z) + 1, x.size))
        path[0] = x
        drive = z @ noise.T + bd
        del z
        for i, ui in enumerate(drive, start=1):
            x = ad @ x + ui
            path[i] = x
        return path
    drive = np.empty((x.size, len(z) + 1))
    drive[:, 0] = x
    np.matmul(noise, z.T, out=drive[:, 1:])
    del z
    drive[:, 1:] += bd[:, None]
    return scipy.linalg.blas.dtbsv(
        1, _decay_band(decay, drive.shape[1]), drive.ravel(), lower=0,
        trans=1, diag=1, overwrite_x=1).reshape(drive.shape).T


def _decay_band(decay: np.ndarray, m: int) -> np.ndarray:
    """The upper band of the unit bidiagonal matrix whose transpose runs
    ``x_i = decay_j x_{i-1} + u_i`` along each coordinate j's ``m``
    entries, in ``dtbsv``'s Fortran-ordered ``(2, dim * m)`` storage: the
    superdiagonal row is ``-decay_j`` along run j and 0 where each run
    starts.  The diagonal row is left unset: ``diag=1`` never reads it."""
    band = np.empty((2, decay.size * m), order="F")
    superdiagonal = band[0].reshape(decay.size, m)
    superdiagonal[:, 0] = 0.0
    superdiagonal[:, 1:] = -decay[:, None]
    return band


def _normals(blocks: list, rngs: list, start: int, stop: int) -> tuple:
    """Each block's unfilled ``(stop - start, dim)`` array for the standard
    normals of the chunk's steps, which lead from row ``start`` to rows
    ``start + 1`` to ``stop`` of a path, in block order, and the claims
    on them for :func:`_draw`: ``(stream, array)`` pairs, the largest
    array last.  Both are made by the thread that calls
    :func:`simulate_custom`."""
    normals = [np.empty((stop - start, block.dim)) for block in blocks]
    return normals, sorted(zip(rngs, normals), key=lambda c: c[1].size)


def _draw(claims: list) -> None:
    """Pops claims off ``claims`` until it is empty, largest first, and
    fills each one's array in place with standard normals from its
    block's stream, which allocates nothing: the helper thread of
    :func:`simulate_custom` leaves no heap of its own behind.  The helper
    and the calling thread run this on one list at once, and ``pop``
    hands each claim to one of them.  Drawn chunk by chunk into C-ordered
    arrays, a stream is consumed exactly as by one ``(n, dim)`` draw."""
    while True:
        try:
            rng, z = claims.pop()
        except IndexError:
            return
        rng.standard_normal(out=z)


def _block_streams(seed: int) -> list[np.random.Generator]:
    children = np.random.SeedSequence(_doc.integer(seed, "seed")).spawn(4)
    return [np.random.default_rng(c) for c in children]


def simulate_custom(truth: Truth, *, n: int, T: float, seed: int,
                    keep_latents: bool = True) -> PathBundle:
    """Simulate a checked truth on the grid of ``n`` steps over ``T``.

    One loop over the path's chunks.  Each pass (:func:`_chunk_pass`)
    takes the four blocks' normals of its chunk ``(start, stop)``, solves
    each block from its row ``start`` (``init``, or the last row of the
    chunk before) and writes rows ``start`` to ``stop`` of the
    observations into ``x_obs``, assembled in the solve's ``(dim, rows)``
    layout; the latent paths are stored only with ``keep_latents``.  The
    blocks' exact transitions are built once per truth and grid in a
    process (see :func:`_exact_transition`).

    The calling thread draws the first chunk's normals before the loop.
    With two or more chunks, each pass first allocates the next chunk's
    normal arrays and hands the claims on them to a one-thread executor,
    opened for the call and shut down when it returns or raises; a
    one-chunk path starts no thread.  After the pass, the calling thread
    draws the claims the helper has not started and waits for the one in
    progress.  So the calling thread allocates every array of normals,
    and a draw only fills them, on whichever thread it runs.
    """
    if not isinstance(truth, Truth):
        raise TypeError("truth must be a Truth, as load_truth returns, "
                        f"not {type(truth).__name__}")
    h = _grid_step(n, T)
    (p1, k1), (p2, k2) = truth.lambda_x1.shape, truth.lambda_x2.shape
    blocks = [getattr(truth, key) for key in _LATENT]
    transitions = [_exact_transition(block, h) for block in blocks]
    rngs = _block_streams(seed)
    # The outputs come before the cuts: a path too large to hold fails
    # here at once, not after a list of its chunk bounds is built.
    x_obs = np.empty((n + 1, p1 + p2))
    latents = {}
    if keep_latents:
        latents = {name: np.empty((n + 1, dim)) for name, dim in
                   zip(LATENT_PATHS, (k1, p1, p2, k2, k2))}
    bounds = _chunk_bounds(n)
    last = [block.init for block in blocks]
    with (ThreadPoolExecutor(max_workers=1) if len(bounds) > 1
          else contextlib.nullcontext()) as pool:
        normals, claims = _normals(blocks, rngs, *bounds[0])
        _draw(claims)
        for (start, stop), following in zip(bounds, [*bounds[1:], None]):
            if following:
                ahead, claims = _normals(blocks, rngs, *following)
                helper = pool.submit(_draw, claims)
            last = _chunk_pass(
                truth, transitions, last, normals, x_obs[start:stop + 1].T,
                [path[start:stop + 1].T for path in latents.values()])
            if following:
                _draw(claims)
                helper.result()
                normals = ahead
    return PathBundle(n=n, T=T, h=h, seed=int(seed), x_obs=x_obs, **latents)


def _chunk_pass(truth: Truth, transitions: list, last: list, normals: list,
                obs: np.ndarray, stored: list) -> list:
    """One chunk of :func:`simulate_custom`: solves the four blocks from
    their rows ``last`` with their ``normals``, writes the observations
    of all the chunk's rows, its first row included, into ``obs`` (a
    ``(p, rows)`` view of ``x_obs``) and the latent paths into the views
    ``stored`` (none without latents), and returns copies of the blocks'
    last rows.  The first row is the previous chunk's last one (or the
    path's row 0), written again with the same bits.  Nothing else of the
    chunk outlives the call, and each block's normals are popped for its
    solve, which frees them once its drive is formed.
    """
    xi, delta, eps, zeta = [_chunk_path(transition, x, normals.pop(0)).T
                            for transition, x in zip(transitions, last)]
    p1 = truth.lambda_x1.shape[0]
    np.add(truth.lambda_x1 @ xi, delta, out=obs[:p1])
    eta = truth.gamma @ xi
    eta += zeta
    eta = truth.psi_inv @ eta
    np.add(truth.lambda_x2 @ eta, eps, out=obs[p1:])
    for target, path in zip(stored, (xi, delta, eps, zeta, eta)):
        target[...] = path
    return [path[:, -1].copy() for path in (xi, delta, eps, zeta)]


def simulate_true_model(n: int, T: float, seed: int,
                        keep_latents: bool = True) -> PathBundle:
    """Simulate ``TRUE_MODEL_NAME``; deterministic given ``seed``."""
    return simulate_custom(load_truth(TRUE_MODEL_NAME), n=n, T=T, seed=seed,
                           keep_latents=keep_latents)
