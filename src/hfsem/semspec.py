"""Declarative candidate-model specifications and their implied covariance.

A :class:`SemSpec` describes one candidate structural model: which entries
of the loading matrices (``lambda_x1``, ``lambda_x2``), the structural
matrices (``b``, ``gamma``) and the four latent covariance matrices are
fixed constants and which are free parameters.  Each free cell reads its
value from one entry of the parameter vector ``theta``, by index.

The implied covariance of the observed process has three blocks::

    S11 = L1 @ Phi @ L1.T + S_dd
    S12 = L1 @ Phi @ G.T @ inv(Psi).T @ L2.T
    S22 = L2 @ inv(Psi) @ (G @ Phi @ G.T + S_zz) @ inv(Psi).T @ L2.T + S_ee

with ``Phi`` the common-factor covariance, ``Psi = I - B``, ``G`` the
factor regression matrix, and ``S_dd``, ``S_ee``, ``S_zz`` the unique
covariances.  These are the blocks of ``Lam A P A' Lam' + U`` with
``Lam = diag(L1, L2)``, ``A = inv(I - Beta)``, ``Beta = [[0, 0], [G, B]]``,
``P = diag(Phi, S_zz)`` and ``U = diag(S_dd, S_ee)``.  Each of these four
matrices is affine in ``theta``, so ``SemSpec.forward`` applies the
product rule once to unit stacks built at construction and returns Sigma
with its first and, on request, second derivatives in theta; ``sigma``
and ``jacobian`` (the vech rows of the first-derivative stack) come from
that forward pass.

The bases and unit stacks are the one record of the model layout:
``moment_start`` and ``nested_embedding`` read them, not the pattern cells,
and no other module reads either.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _doc, matkit
from .errors import SingularStructureError, SpecError

__all__ = [
    "Fixed",
    "Free",
    "PatternMatrix",
    "SemSpec",
    "jacobian_rank",
    "moment_start",
    "nested_embedding",
    "rank_screen",
]

SCHEMA_VERSION = "hfsem-spec-v1"
CONSTRAINTS = ("none", "nonzero", "positive")

# Each role's place in the all-y matrices (0) Lam = diag(L1, L2),
# (1) Beta = [[0, 0], [G, B]], (2) P = diag(Phi, S_zz) and
# (3) U = diag(S_dd, S_ee): the matrix, then per axis the dimension that
# offsets the block ("" for none) and the block's own dimension.  The
# covariance roles, in P and U, are symmetric.  Keys are in canonical order.
_LAYOUT = {
    "lambda_x1": (0, ("", "p1"), ("", "k1")),
    "lambda_x2": (0, ("p1", "p2"), ("k1", "k2")),
    "b": (1, ("k1", "k2"), ("k1", "k2")),
    "gamma": (1, ("k1", "k2"), ("", "k1")),
    "sigma_xixi": (2, ("", "k1"), ("", "k1")),
    "sigma_dd": (3, ("", "p1"), ("", "p1")),
    "sigma_ee": (3, ("p1", "p2"), ("p1", "p2")),
    "sigma_zz": (2, ("k1", "k2"), ("k1", "k2")),
}
_ROLES = tuple(_LAYOUT)
_DIMS = ("p1", "p2", "k1", "k2")

_PSI_COND_LIMIT = 1e12
_RANK_SCREEN_DRAWS = 3


@dataclass(frozen=True)
class Fixed:
    """A cell pinned to a constant, finite value."""
    value: float

    def __post_init__(self):
        if not (_doc.is_number(self.value) and math.isfinite(self.value)):
            raise SpecError(f"fixed value must be a finite number, got {self.value!r}")


@dataclass(frozen=True)
class Free:
    """A cell read from ``theta`` at the integer position ``index``.

    ``"positive"`` puts the parameter in ``SemSpec.positive_mask``, as a
    diagonal covariance cell is anyway.  ``"nonzero"`` is accepted as a
    label only: the estimator does not enforce it.
    """
    index: int
    constraint: str = "none"

    def __post_init__(self):
        if not _doc.is_number(self.index, numbers.Integral):
            raise SpecError(f"free index must be an integer, got {self.index!r}")
        if self.constraint not in CONSTRAINTS:
            raise SpecError(f"unknown constraint {self.constraint!r}")


class PatternMatrix:
    """A rectangular grid of :class:`Fixed` / :class:`Free` cells."""

    def __init__(self, cells: Sequence[Sequence[Fixed | Free]]):
        self.cells = [list(row) for row in cells]
        self.rows = len(self.cells)
        self.cols = len(self.cells[0]) if self.rows else 0
        for row in self.cells:
            if len(row) != self.cols:
                raise SpecError("ragged pattern matrix")
            for cell in row:
                if not isinstance(cell, (Fixed, Free)):
                    raise SpecError(f"cell must be Fixed or Free, got {cell!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, rc: tuple[int, int]) -> Fixed | Free:
        return self.cells[rc[0]][rc[1]]

    @classmethod
    def fixed(cls, array: np.ndarray) -> "PatternMatrix":
        """All-fixed pattern holding the given values."""
        a = np.asarray(array, dtype=float)
        return cls([[Fixed(float(v)) for v in row] for row in a])


def _swap(x: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return x.swapaxes(-1, -2)


def _psi_inverse(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """inv(I - b) for each matrix of a stack, and which of them are
    numerically singular (their inverse is left as the identity)."""
    eye = np.eye(b.shape[-1])
    psi = eye - b
    singular = ~(np.linalg.cond(psi) <= _PSI_COND_LIMIT)
    psi[singular] = eye
    return np.linalg.inv(psi), singular


def _invert_psi(b: np.ndarray, what: str) -> np.ndarray:
    """inv(I - b); ``SingularStructureError`` naming ``what`` for b."""
    inv, singular = _psi_inverse(b[None])
    if singular[0]:
        raise SingularStructureError(f"I - {what} is numerically singular")
    return inv[0]


class SemSpec:
    """One candidate model: dimensions, patterns, parameter box.

    Parameters
    ----------
    dims : dict with positive integer values for p1, p2, k1, k2.
    patterns : dict from role name to :class:`PatternMatrix`; roles are
        lambda_x1 (p1 x k1), lambda_x2 (p2 x k2), b (k2 x k2, zero
        diagonal), gamma (k2 x k1), sigma_xixi (k1 x k1), sigma_dd
        (p1 x p1), sigma_ee (p2 x p2), sigma_zz (k2 x k2).  Covariance
        patterns must be cell-symmetric, and the free indices must cover
        ``0..q-1``, each in one cell (and its mirror).
    lower, upper : per-parameter closed bounds, length q; lower < upper,
        and infinite ends are allowed.
    name : identifier used in reports and file output.

    Construction walks each pattern once (the lower triangle of a
    covariance pattern) into the fixed bases and the unit stacks
    ``d(matrix)/d(theta)`` of the all-y matrices.
    """

    def __init__(self, dims, patterns, lower, upper, name: str = "model"):
        self.name = str(name)
        try:
            _doc.fields(dims, "dims", _DIMS)
            _doc.fields(patterns, "patterns", _ROLES)
            for key in _DIMS:
                setattr(self, key, _doc.integer(dims[key], f"dimension {key!r}", 1))
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        if self.k1 > self.p1 or self.k2 > self.p2:
            raise SpecError("factor dimensions cannot exceed observed dimensions")
        self.p = self.p1 + self.p2
        self.pbar = self.p * (self.p + 1) // 2

        size = {"": 0, "p1": self.p1, "p2": self.p2, "k1": self.k1, "k2": self.k2}
        k = self.k1 + self.k2
        self._bases = [np.zeros(s) for s in
                       ((self.p, k), (k, k), (k, k), (self.p, self.p))]
        self.patterns: dict[str, PatternMatrix] = {}
        # theta index -> (role, matrix, positions in it, positive)
        free: dict[int, tuple] = {}
        for role, (m, (r0, rows), (c0, cols)) in _LAYOUT.items():
            pat = patterns[role]
            shape = (size[rows], size[cols])
            if pat.shape != shape:
                raise SpecError(
                    f"pattern {role!r} has shape {pat.shape}, expected {shape}")
            self.patterns[role] = pat
            r0, c0, sym = size[r0], size[c0], m >= 2
            for i in range(pat.rows):
                for j in range(i + 1 if sym else pat.cols):
                    cell = pat[i, j]
                    if sym and cell != pat[j, i]:
                        raise SpecError(
                            f"covariance pattern {role!r} must be cell-symmetric")
                    if role == "b" and i == j and cell != Fixed(0.0):
                        raise SpecError(
                            "diagonal of the b pattern must be fixed at zero")
                    at = {(r0 + i, c0 + j)}
                    if sym:
                        at.add((r0 + j, c0 + i))
                    if isinstance(cell, Fixed):
                        for r, c in at:
                            self._bases[m][r, c] = cell.value
                    elif cell.index in free:
                        raise SpecError(f"theta index {cell.index} used in both "
                                        f"{free[cell.index][0]} and {role}")
                    else:  # a covariance diagonal is a variance
                        positive = cell.constraint == "positive" or (sym and i == j)
                        free[cell.index] = (role, m, at, positive)
        self.q = len(free)
        if sorted(free) != list(range(self.q)):
            raise SpecError("theta indices must cover 0..q-1 exactly once")

        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != (self.q,) or self.upper.shape != (self.q,):
            raise SpecError(f"bounds must have length q={self.q}")
        if not np.all(self.lower < self.upper):
            raise SpecError("lower bounds must be strictly below upper bounds")

        self.positive_mask = np.zeros(self.q, dtype=bool)
        self._units = [np.zeros((self.q,) + base.shape) for base in self._bases]
        for idx, (_, m, at, positive) in free.items():
            self.positive_mask[idx] = positive
            for r, c in at:
                self._units[m][idx, r, c] = 1.0
        if np.any(self.lower[self.positive_mask] <= 0.0):
            raise SpecError("variance-parameter bounds need positive lower ends")

        # Each parameter enters one of the four matrices: its group.
        self._groups = [np.flatnonzero(unit.any(axis=(1, 2)))
                        for unit in self._units]

        # A fixed b is checked once here; a free one on every pass.
        self._psi_inv = None
        if not self._units[1][:, self.k1:, self.k1:].any():
            try:
                self._psi_inv = _invert_psi(self._bases[1][self.k1:, self.k1:],
                                            f"b of model {self.name!r}")
            except SingularStructureError as exc:
                raise SpecError(str(exc)) from exc

        self._vech_rows, self._vech_cols = matkit.vech_indices(self.p)

    def _check_theta(self, theta: np.ndarray, lanes: bool = False) -> np.ndarray:
        """``theta`` as a float vector of length q (or, with ``lanes``, a
        stack of them)."""
        theta = np.asarray(theta, dtype=float)
        ndims = (1, 2) if lanes else (1,)
        if theta.ndim not in ndims or theta.shape[-1] != self.q:
            raise SpecError(f"theta must have length q={self.q}, got {theta.shape}")
        if not np.all(np.isfinite(theta)):
            raise SpecError("theta has non-finite entries")
        return theta

    # -- implied covariance ------------------------------------------------

    def forward(self, theta: np.ndarray, order: int = 0) -> tuple:
        """The implied covariance and its derivative stacks at ``theta``.

        Returns ``(sigma,)``, ``(sigma, d1)`` or ``(sigma, d1, d2)`` up to
        ``order``: ``d1[i] = dSigma/dtheta_i`` (q x p x p) and
        ``d2[i, j] = d2 Sigma/dtheta_i dtheta_j`` (q x q x p x p), all from
        one application of the product rule to ``Lam C Lam' + U`` with
        ``C = A P A'`` and ``A = inv(I - Beta)`` on the unit stacks.

        ``theta`` may also be a (B, q) stack of lanes; every output then
        has a leading lane axis.  Each product acts on one lane at a time,
        so a lane's outputs do not depend on the other lanes of the stack.
        A numerically singular I - B raises ``SingularStructureError`` for
        one vector; in a stack, that lane's outputs are all NaN.
        """
        theta = self._check_theta(theta, lanes=True)
        q, k1, k = self.q, self.k1, self.k1 + self.k2
        n_lanes = 1 if theta.ndim == 1 else len(theta)
        lanes = theta.reshape(n_lanes, 1, q)
        lam, beta, phi, u = (
            base + (lanes @ unit.reshape(q, base.size)).reshape(
                (n_lanes,) + base.shape)
            for base, unit in zip(self._bases, self._units))
        singular = np.zeros(n_lanes, dtype=bool)
        psi_inv = self._psi_inv
        if psi_inv is None:
            psi_inv, singular = _psi_inverse(beta[:, k1:, k1:])
            if theta.ndim == 1 and singular[0]:
                raise SingularStructureError(
                    f"I - b of model {self.name!r} is numerically singular")
        a = np.zeros((n_lanes, k, k))
        a[:, :k1, :k1] = np.eye(k1)
        a[:, k1:, :k1] = psi_inv @ beta[:, k1:, :k1]
        a[:, k1:, k1:] = psi_inv
        c = a @ phi @ _swap(a)
        c_lam = c @ _swap(lam)
        sigma = lam @ c_lam + u
        out = [0.5 * (sigma + _swap(sigma))]

        if order >= 1:
            # dC_i = y_i + y_i' and dSigma_i = z_i + z_i' (P, U and C
            # symmetric), each parameter through the matrix it enters;
            # parameters run on the axis after the lanes.
            d_lam, d_beta, d_phi, d_u = self._units
            g_lam, g_beta, g_phi, g_u = self._groups
            g_c = np.concatenate([g_beta, g_phi])
            a_, at_ = a[:, None], _swap(a)[:, None]
            d_a = a_ @ d_beta[g_beta] @ a_
            phi_a = phi @ _swap(a)
            y = np.concatenate([d_a @ phi_a[:, None],
                                0.5 * (a_ @ d_phi[g_phi] @ at_)], axis=1)
            d1 = np.empty((n_lanes, q, self.p, self.p))
            z = d_lam[g_lam] @ c_lam[:, None]
            d1[:, g_lam] = z + _swap(z)
            z = lam[:, None] @ y @ _swap(lam)[:, None]
            d1[:, g_c] = z + _swap(z)
            d1[:, g_u] = d_u[g_u]
            out.append(d1)

        if order >= 2:
            # Second derivatives block by block of the groups: two loadings
            # (through C), a loading and a parameter of C (through dC), and
            # two parameters of C (through d2C = y2 + y2').  Pairs (i, j)
            # run on the two axes after the lanes; the unit stacks have no
            # lane axis.  All other pairs, those with a U parameter among
            # them, are zero.
            ui, uj = (slice(None), None), (None, slice(None))
            li, lj = (slice(None), slice(None), None), (slice(None), None)
            a_, at_ = a[:, None, None], _swap(a)[:, None, None]
            lam_, lamt_ = lam[:, None, None], _swap(lam)[:, None, None]
            d_l, d_b, d_p = d_lam[g_lam], d_beta[g_c], d_phi[g_c]
            d_ac = np.zeros((n_lanes, len(g_c), k, k))
            d_ac[:, :len(g_beta)] = d_a
            d2_a = d_ac[lj] @ d_b[ui] @ a_ + a_ @ d_b[ui] @ d_ac[lj]
            y2 = (d2_a @ phi_a[:, None, None] + d_ac[li] @ d_p[uj] @ at_
                  + d_ac[lj] @ d_p[ui] @ at_
                  + d_ac[li] @ phi[:, None, None] @ _swap(d_ac)[lj])
            z_ll = d_l[ui] @ c[:, None, None] @ _swap(d_l)[uj]
            z_lc = d_l[ui] @ (y + _swap(y))[lj] @ lamt_
            z_cc = lam_ @ y2 @ lamt_
            d2 = np.zeros((n_lanes, q, q, self.p, self.p))
            d2[:, g_lam[:, None], g_lam] = z_ll + _swap(z_ll)
            d2[:, g_lam[:, None], g_c] = z_lc + _swap(z_lc)
            d2[:, g_c[:, None], g_lam] = d2[:, g_lam[:, None], g_c].swapaxes(1, 2)
            d2[:, g_c[:, None], g_c] = z_cc + _swap(z_cc)
            out.append(d2)

        if singular.any():
            for x in out:
                x[singular] = np.nan
        if theta.ndim == 1:
            out = [x[0] for x in out]
        return tuple(out)

    def sigma(self, theta: np.ndarray) -> np.ndarray:
        """The implied p x p covariance at ``theta``."""
        return self.forward(theta)[0]

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """d vech(Sigma) / d theta, a (p(p+1)/2 x q) matrix: the vech rows
        of the forward pass's first-derivative stack."""
        d1 = self.forward(theta, 1)[1]
        return d1[:, self._vech_rows, self._vech_cols].T

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        def cell_out(cell: Fixed | Free) -> dict:
            if isinstance(cell, Fixed):
                return {"fixed": cell.value}
            return {"free": {"index": cell.index, "constraint": cell.constraint}}

        doc = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "dims": {"p1": self.p1, "p2": self.p2, "k1": self.k1, "k2": self.k2},
            "bounds": {"lower": self.lower.tolist(), "upper": self.upper.tolist()},
        }
        for role in _ROLES:
            pat = self.patterns[role]
            doc[role] = [[cell_out(pat[i, j]) for j in range(pat.cols)]
                         for i in range(pat.rows)]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "SemSpec":
        def cell_in(obj) -> Fixed | Free:
            key, value = _doc.one_key(obj, "cell", ("fixed", "free"))
            if key == "fixed":
                return Fixed(value)
            free = _doc.fields(value, "free cell", ("index",), ("constraint",))
            return Free(free["index"], free.get("constraint", "none"))

        try:
            _doc.fields(doc, "spec", ("dims", "bounds") + _ROLES, ("name",),
                        schema=SCHEMA_VERSION)
            patterns = {}
            for role in _ROLES:
                grid = doc[role]
                if not (isinstance(grid, list)
                        and all(isinstance(r, list) for r in grid)):
                    raise SpecError(f"pattern {role!r} must be a list of rows")
                patterns[role] = PatternMatrix([[cell_in(c) for c in row]
                                                for row in grid])
            bounds = _doc.fields(doc["bounds"], "bounds", ("lower", "upper"))
            lower, upper = (_doc.array(bounds[key], f"bounds.{key}", ndim=1)
                            for key in ("lower", "upper"))
            name = _doc.text(doc.get("name", "model"), "name")
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        return cls(dims=doc["dims"], patterns=patterns, lower=lower,
                   upper=upper, name=name)

    def to_json(self, path) -> None:
        _doc.write_json(self.to_dict(), path)

    @classmethod
    def from_json(cls, path) -> "SemSpec":
        return cls.from_dict(_doc.read_json(path))


# -- identifiability ---------------------------------------------------------

def _probe_start(spec: SemSpec, rng: np.random.Generator) -> np.ndarray:
    """A random interior point; positive parameters drawn log-uniformly."""
    pos = spec.positive_mask
    lo = np.where(pos, np.maximum(spec.lower, 1e-2), np.maximum(spec.lower, -10.0))
    hi = np.where(pos, np.minimum(spec.upper, 1e2), np.minimum(spec.upper, 10.0))
    u = rng.uniform(size=spec.q)
    theta = lo + u * (hi - lo)
    theta[pos] = np.exp(np.log(lo[pos]) + u[pos] * (np.log(hi[pos]) - np.log(lo[pos])))
    return theta


def jacobian_rank(spec: SemSpec, theta: np.ndarray) -> tuple[np.ndarray, int]:
    """``spec.jacobian(theta)`` and its numeric rank: the one rank test of
    the rank screen, the identifiability check and ``gamma_zero``."""
    jac = spec.jacobian(theta)
    return jac, matkit.numeric_rank(jac)


def rank_screen(spec: SemSpec) -> bool:
    """Whether the Jacobian has full rank at one of a few random interior
    points.  The rank is constant off a null set, so that certifies the
    spec; a structurally redundant parameterization fails at every point."""
    rng = np.random.default_rng(0)
    for _ in range(_RANK_SCREEN_DRAWS):
        try:
            if jacobian_rank(spec, _probe_start(spec, rng))[1] == spec.q:
                return True
        except SingularStructureError:
            continue
    return False


# -- queries on the layout ----------------------------------------------------

def _cell_means(spec: SemSpec, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Each parameter's mean over its cells of four all-y ``arrays``."""
    total = sum(np.tensordot(u, a, 2) for u, a in zip(spec._units, arrays))
    return total / sum(u.sum(axis=(1, 2)) for u in spec._units)


def moment_start(spec: SemSpec, q_xx: np.ndarray) -> np.ndarray:
    """Moment-style default start, clipped into the box: each parameter's
    mean over its cells of Lam = 1, Beta = 0.5 on its gamma block and 0 on
    its b block, P = diag(half the mean of diag(q_xx) over each block) and
    U = half diag(q_xx), so the implied diagonal starts on the right scale."""
    diag, k1, k = np.diag(q_xx), spec.k1, spec.k1 + spec.k2
    beta = np.zeros((k, k))
    beta[k1:, :k1] = 0.5
    means = np.repeat([diag[:spec.p1].mean(), diag[spec.p1:].mean()],
                      [k1, spec.k2])
    theta = _cell_means(spec, (np.ones((spec.p, k)), beta,
                               np.diag(0.5 * means), np.diag(0.5 * diag)))
    return np.clip(theta, spec.lower, spec.upper)


def nested_embedding(inner: SemSpec, outer: SemSpec):
    """Structural embedding of ``inner`` into ``outer``, if one exists.

    Returns ``(F, c)`` with ``F.T @ F = I`` such that the outer model at
    ``F @ theta + c`` reproduces the inner model's matrices at every
    ``theta``, or ``None``.  Each inner unit stack must equal one outer
    stack, a unit column of ``F``; ``c`` is the inner bases' mean over each
    outer parameter's cells, and the outer bases plus ``c`` through the
    outer stacks must equal the inner bases exactly."""
    if (inner.p1, inner.p2, inner.k1, inner.k2) != \
            (outer.p1, outer.p2, outer.k1, outer.k2):
        return None
    f = np.all([(u_out[:, None] == u_in[None]).all(axis=(2, 3))
                for u_out, u_in in zip(outer._units, inner._units)], axis=0)
    if not np.all(f.sum(axis=0) == 1):
        return None
    c = _cell_means(outer, inner._bases)
    for base, unit, target in zip(outer._bases, outer._units, inner._bases):
        if not np.array_equal(base + np.tensordot(c, unit, 1), target):
            return None
    return f.astype(float), c
