"""Declarative candidate-model specifications and their implied covariance.

A :class:`SemSpec` describes one candidate structural model: which entries
of the loading matrices (``lambda_x1``, ``lambda_x2``), the structural
matrices (``b``, ``gamma``) and the four latent covariance matrices are
fixed constants and which are free parameters.  Each free cell reads its
value from one entry of the parameter vector ``theta``, by index.

A spec is its document (schema ``hfsem-spec-v1``).  Each matrix is the
document's rows of cells, ``{"fixed": v}`` or
``{"free": {"index": i, "constraint": c}}``; construction reads each cell
once, by ``_doc``'s rules, and keeps the cells as given (a free cell's
constraint filled in) as ``SemSpec.patterns``, so ``to_dict`` is a copy.

The implied covariance of the observed process has three blocks::

    S11 = L1 @ Phi @ L1.T + S_dd
    S12 = L1 @ Phi @ G.T @ inv(Psi).T @ L2.T
    S22 = L2 @ inv(Psi) @ (G @ Phi @ G.T + S_zz) @ inv(Psi).T @ L2.T + S_ee

with ``Phi`` the common-factor covariance, ``Psi = I - B``, ``G`` the
factor regression matrix, and ``S_dd``, ``S_ee``, ``S_zz`` the unique
covariances.  These are the blocks of ``Lam A P A' Lam' + U`` with
``Lam = diag(L1, L2)``, ``A = inv(I - Beta)``, ``Beta = [[0, 0], [G, B]]``,
``P = diag(Phi, S_zz)`` and ``U = diag(S_dd, S_ee)``.  Each of these four
matrices is affine in ``theta`` and each parameter is one cell of one of
them, so ``dSigma/dtheta_i`` is ``h + h'`` with ``h`` a product of two
columns of the basis ``[I, Lam A, Lam C]``.  ``SemSpec.forward`` returns
Sigma with, on request, the :class:`FactorRecord` of these bases, the one
record of the first derivatives, and the second-derivative term of a
likelihood's Hessian, all in factor space; ``sigma`` and ``jacobian``
come from that forward pass.

The bases and unit stacks are the one record of the model layout:
``moment_start`` and ``nested_embedding`` read them, not the pattern cells,
and no other module reads either, nor the factor tables built from them.
"""

from __future__ import annotations

import copy
import math
from typing import Sequence

import numpy as np

from . import _doc, matkit
from .errors import SingularStructureError, SpecError

__all__ = [
    "FactorRecord",
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
# Lanes per block of ``FactorRecord.trace_products``: its gathers take
# 4 q^2 doubles a lane (15 KB at q = 22).  At 16 lanes the cost per lane
# held from 16 to 128 lanes; the whole stack at once cost 2.3x as much per
# lane at 64 lanes as at 16.
_LANE_BLOCK = 16


def _read_cell(cell, where: str) -> dict:
    """The pattern cell ``where`` read by ``_doc``'s rules: ``{"fixed": v}``
    with ``v`` a finite number, kept as given, or ``{"free": {"index": i,
    "constraint": c}}`` with ``c`` filled in."""
    try:
        key, value = _doc.one_key(cell, where, ("fixed", "free"))
        if key == "fixed":
            if not math.isfinite(_doc.number(value, f"{where}.fixed")):
                raise ValueError(f"{where}.fixed must be a finite number, got {value!r}")
            return {"fixed": value}
        free = _doc.fields(value, f"{where}.free", ("index",), ("constraint",))
        index = _doc.integer(free["index"], f"{where}.free.index")
        constraint = free.get("constraint", "none")
        if constraint not in CONSTRAINTS:
            raise ValueError(f"{where}.free.constraint must be one of "
                             f"{CONSTRAINTS}, got {constraint!r}")
        return {"free": {"index": index, "constraint": constraint}}
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


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


class FactorRecord:
    """The first derivatives ``Sigma_i = dSigma/dtheta_i`` of one forward
    pass in factor form, ``h_i + h_i'`` with ``h_i = w_i b_u b_v'`` for
    columns ``u_i`` and ``v_i`` of the basis ``[I, Lam A, Lam C]`` (see
    ``SemSpec``); only the bases are kept, one per lane.  Each method works
    on the lanes given (an index array or a slice), and a lane whose I - B
    is singular gives NaN."""

    def __init__(self, spec: "SemSpec", basis: np.ndarray):
        self._spec, self._basis = spec, basis

    def _gram(self, lanes, m: np.ndarray) -> np.ndarray:
        b = self._basis[lanes]
        return _swap(b) @ m @ b

    def trace(self, lanes, m: np.ndarray) -> np.ndarray:
        """(len, q) ``tr(m Sigma_i) = w_i (G[u_i, v_i] + G[v_i, u_i])`` for
        a stack of p x p ``m``, one per lane, and ``G = basis' m basis``."""
        u, v, w = self._spec._factors
        g = self._gram(lanes, m)
        return w * (g[:, u, v] + g[:, v, u])

    def trace_products(self, lanes, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """(len, q, q) ``tr(s Sigma_i t Sigma_j)`` for stacks of symmetric
        p x p ``s`` and ``t`` (or one matrix for every lane), from their
        Gram matrices (one if ``t is s``).

        The lanes are contracted ``_LANE_BLOCK`` at a time, so the (block,
        4, q, q) gathers stay in cache whatever the lane count; each lane's
        arithmetic is that of a one-lane call."""
        pair_s, pair_t, weight = self._spec._gram_pairs
        lanes = np.arange(len(self._basis))[lanes]
        one = t is s
        s, t = (np.broadcast_to(m, lanes.shape + m.shape[-2:]) for m in (s, t))
        out = np.empty(lanes.shape + weight.shape)
        for start in range(0, len(lanes), _LANE_BLOCK):
            block = slice(start, start + _LANE_BLOCK)
            g_s = self._gram(lanes[block], s[block])
            g_s = g_s.reshape(len(g_s), -1)
            g_t = g_s if one else \
                self._gram(lanes[block], t[block]).reshape(g_s.shape)
            out[block] = weight * (g_s[:, pair_s] * g_t[:, pair_t]).sum(axis=1)
        return out

    def jacobian(self, lanes) -> np.ndarray:
        """(len, p(p+1)/2, q) ``d vech(Sigma)/d theta``, whose row (a, b) is
        ``w_i (B[a, u_i] B[b, v_i] + B[b, u_i] B[a, v_i])`` for the basis B."""
        u, v, w = self._spec._factors
        rows, cols = self._spec._vech_rows, self._spec._vech_cols
        b = self._basis[lanes]
        b_u, b_v = b[:, :, u], b[:, :, v]
        return w * (b_u[:, rows] * b_v[:, cols] + b_u[:, cols] * b_v[:, rows])


class SemSpec:
    """One candidate model: dimensions, patterns, parameter box.

    Parameters
    ----------
    dims : dict with positive integer values for p1, p2, k1, k2.
    patterns : dict from role name to the document's list of rows of
        cells, ``{"fixed": v}`` (v a finite number) or
        ``{"free": {"index": i, "constraint": c}}`` (i an integer, c one of
        ``CONSTRAINTS``, "none" if left out); roles are lambda_x1
        (p1 x k1), lambda_x2 (p2 x k2), b (k2 x k2, zero diagonal), gamma
        (k2 x k1), sigma_xixi (k1 x k1), sigma_dd (p1 x p1), sigma_ee
        (p2 x p2), sigma_zz (k2 x k2).  Covariance patterns must be
        cell-symmetric, and the free indices must cover ``0..q-1``, each in
        one cell (and its mirror).  ``"positive"`` puts the parameter in
        ``positive_mask``, as a diagonal covariance cell is anyway;
        ``"nonzero"`` is a label only, which the estimator does not enforce.
    lower, upper : per-parameter closed bounds, length q; lower < upper,
        and infinite ends are allowed.
    name : identifier in reports and CSV cells: no comma, quote or line break.

    Construction walks each pattern once, reading every cell and placing
    those of the lower triangle of a covariance pattern (each with its
    mirror) into the fixed bases and the unit stacks ``d(matrix)/d(theta)``
    of the all-y matrices.  A malformed cell raises ``SpecError`` naming
    it, ``role[i][j]``.
    """

    def __init__(self, dims, patterns, lower, upper, name: str = "model"):
        try:
            self.name = _doc.model_name(name, "name")
            _doc.fields(dims, "dims", _DIMS)
            _doc.fields(patterns, "patterns", _ROLES)
            for key in _DIMS:
                setattr(self, key, _doc.integer(dims[key], f"dimension {key!r}", 1))
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        if self.k1 > self.p1 or self.k2 > self.p2:
            raise SpecError("factor dimensions cannot exceed observed dimensions")
        self.p = self.p1 + self.p2

        size = {"": 0, "p1": self.p1, "p2": self.p2, "k1": self.k1, "k2": self.k2}
        k = self.k1 + self.k2
        self._bases = [np.zeros(s) for s in
                       ((self.p, k), (k, k), (k, k), (self.p, self.p))]
        self.patterns: dict[str, list] = {}
        # theta index -> (role, matrix, positions in it, positive)
        free: dict[int, tuple] = {}
        for role, (m, (r0, rows), (c0, cols)) in _LAYOUT.items():
            grid = patterns[role]
            r0, rows, c0, cols = size[r0], size[rows], size[c0], size[cols]
            if not (isinstance(grid, list) and len(grid) == rows):
                raise SpecError(f"pattern {role!r} must be a list of {rows} rows")
            sym = m >= 2
            cells = self.patterns[role] = [[] for _ in grid]
            for i, row in enumerate(grid):
                if not (isinstance(row, list) and len(row) == cols):
                    raise SpecError(f"{role}[{i}] must be a list of {cols} cells")
                for j, cell in enumerate(row):
                    where = f"{role}[{i}][{j}]"
                    cell = _read_cell(cell, where)
                    cells[i].append(cell)
                    if sym and j > i:
                        continue  # placed with its mirror
                    if sym and cell != cells[j][i]:
                        raise SpecError(f"covariance cell {where} must equal "
                                        f"its mirror {role}[{j}][{i}]")
                    if role == "b" and i == j and cell != {"fixed": 0.0}:
                        raise SpecError(f"diagonal cell {where} must be fixed at zero")
                    at = {(r0 + i, c0 + j)}
                    if sym:
                        at.add((r0 + j, c0 + i))
                    if "fixed" in cell:
                        for r, c in at:
                            self._bases[m][r, c] = cell["fixed"]
                        continue
                    index = cell["free"]["index"]
                    if index in free:
                        raise SpecError(f"theta index {index} used in both "
                                        f"{free[index][0]} and {role}")
                    # a covariance diagonal is a variance
                    positive = (cell["free"]["constraint"] == "positive"
                                or (sym and i == j))
                    free[index] = (role, m, at, positive)
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
        # Each parameter is one cell (r, c) of its matrix (with its mirror
        # in P and U), so its dSigma is h + h' with h = w u v', u and v
        # columns of the basis [I, Lam A, Lam C] (p x (p + 2k)): (e_r,
        # Lam C e_c) for Lam, (Lam A e_r, Lam C e_c) for Beta, (Lam A e_r,
        # Lam A e_c) for P and (e_r, e_c) for U; w is 1/2 on the diagonal
        # of P and U, 1 elsewhere.
        offsets = [(0, self.p + k), (self.p, self.p + k), (self.p, self.p), (0, 0)]
        u, v, w = (np.zeros(self.q, dtype=int), np.zeros(self.q, dtype=int),
                   np.ones(self.q))
        for idx, (_, m, at, positive) in free.items():
            self.positive_mask[idx] = positive
            for r, c in at:
                self._units[m][idx, r, c] = 1.0
            r, c = min(at)
            u[idx], v[idx] = offsets[m][0] + r, offsets[m][1] + c
            w[idx] = 0.5 if m >= 2 and r == c else 1.0
        # tr(s Sigma_i t Sigma_j) = w_i w_j sum_x G_s[x] G_t[x'] over four
        # pairs of entries of the Gram matrices G = basis' s basis (and t):
        # ([u_i, v_j], [v_i, u_j]), ([u_i, u_j], [v_i, v_j]) and these two
        # with u and v swapped; here as flat indices into G.
        size, ui, vi = self.p + 2 * k, u[:, None], v[:, None]
        self._factors = (u, v, w)
        self._gram_pairs = (
            np.stack([ui * size + v, ui * size + u, vi * size + v, vi * size + u]),
            np.stack([vi * size + u, vi * size + v, ui * size + u, ui * size + v]),
            np.outer(w, w))
        if np.any(self.lower[self.positive_mask] <= 0.0):
            raise SpecError("variance-parameter bounds need positive lower ends")

        # Each parameter enters one of the four matrices: its group.
        self._groups = [np.flatnonzero(unit.any(axis=(1, 2)))
                        for unit in self._units]
        # ``forward``'s order-2 tables, which hang on the layout alone: the
        # loading cells (rows, cols), the parameters of C (Beta's, then
        # P's), and the unit stacks d_b and d_p.
        g_lam, g_beta, g_phi, _ = self._groups
        _, rows, cols = np.nonzero(self._units[0][g_lam])
        self._second_tables = (rows, cols, np.concatenate([g_beta, g_phi]),
                               self._units[1][g_beta], self._units[2][g_phi])

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
        """The implied covariance and its derivatives at ``theta``.

        Returns ``(sigma,)``, ``(sigma, record)`` or ``(sigma, record,
        second)`` up to ``order``, all from one pass over ``Lam C Lam' + U``
        with ``C = A P A'`` and ``A = inv(I - Beta)``: ``record`` is the
        :class:`FactorRecord` of the first derivatives, and
        ``second(lanes, m)`` the (len(lanes), q, q) stack ``tr(m Sigma_ij)``
        for a stack ``m`` of symmetric p x p matrices, one per lane, with
        ``Sigma_ij`` the second derivatives.  Neither builds a (q, p, p) or
        (q, q, p, p) product.  With ``D_i`` the loading unit stacks,
        ``dC_j = y_j + y_j'`` and ``d2C_ij = y2_ij + y2_ij'``,
        ``tr(m Sigma_ij)`` has the blocks ``2 <m D_i C, D_j>`` (two
        loadings), ``2 <Lam' m D_i, dC_j>`` (a loading and a parameter of C)
        and ``2 <Lam' m Lam, y2_ij>`` (two parameters of C); pairs with a
        parameter of U are zero.  Both work only on the lanes asked for.

        ``theta`` may also be a (B, q) stack of lanes; ``sigma`` then has a
        leading lane axis.  Each product acts on one lane at a time, so a
        lane's outputs do not depend on the other lanes of the stack.  A
        numerically singular I - B raises ``SingularStructureError`` for
        one vector; in a stack, that lane's outputs are all NaN.  For one
        vector, the record and ``second`` still take lanes (``[0]``).
        """
        theta = self._check_theta(theta, lanes=True)
        q, p, k1, k = self.q, self.p, self.k1, self.k1 + self.k2
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
        sigma = lam @ (c @ _swap(lam)) + u
        sigma = 0.5 * (sigma + _swap(sigma))
        sigma[singular] = np.nan
        out = [sigma[0] if theta.ndim == 1 else sigma]

        if order >= 1:
            basis = np.concatenate([np.broadcast_to(np.eye(p), (n_lanes, p, p)),
                                    lam @ a, lam @ c], axis=2)
            basis[singular] = np.nan
            out.append(FactorRecord(self, basis))

        if order >= 2:
            # A loading parameter is one cell (rows, cols) of Lam; d_b and
            # d_p are the unit stacks of the parameters of Beta and of P,
            # whose dC_i = y_i + y_i' (P and C symmetric).
            g_lam, g_beta, g_phi, _ = self._groups
            rows, cols, g_c, d_b, d_p = self._second_tables
            nl, nb, kk = len(g_lam), len(g_beta), k * k

            def second(at, m: np.ndarray) -> np.ndarray:
                b, lam_, a_, c_, phi_ = len(at), lam[at], a[at], c[at], phi[at]
                d_a = a_[:, None] @ d_b @ a_[:, None]
                phi_a = phi_ @ _swap(a_)
                y = np.concatenate([d_a @ phi_a[:, None], 0.5 * (
                    a_[:, None] @ d_p @ _swap(a_)[:, None])], axis=1)
                total = np.zeros((b, q, q))
                # <m D_i C, D_j> = m[r_i, r_j] C[c_i, c_j] for cells (r, c)
                total[:, g_lam[:, None], g_lam] = (m[:, rows[:, None], rows]
                                                   * c_[:, cols[:, None], cols])
                # <Lam' m D_i, dC_j> = sum_a (m Lam)[r_i, a] dC_j[a, c_i]
                d_c = y + _swap(y)
                lc = ((m @ lam_)[:, None, rows] @ d_c)[:, :, np.arange(nl), cols]
                total[:, g_lam[:, None], g_c] = _swap(lc)
                total[:, g_c[:, None], g_lam] = lc
                # <Lam' m Lam, y2_ij> by the cyclic trace, with
                # y2_ij = d2A_ij P A' + dA_i dP_j A' + dA_j dP_i A'
                # + dA_i P dA_j' and d2A_ij = dA_j dB_i A + A dB_i dA_j:
                # <dB_i, (C X dA_j + dA_j P A' X A)'> + <X dA_i P, dA_j> for
                # two parameters of Beta, <A' X dA_i, dP_j> for one of Beta
                # and one of P, and 0 for two of P (X = Lam' m Lam).
                x = _swap(lam_) @ m @ lam_
                w = (c_ @ x)[:, None] @ d_a + d_a @ (phi_a @ x @ a_)[:, None]
                bb = (d_b.reshape(nb, kk) @ _swap(_swap(w).reshape(b, nb, kk))
                      + (x[:, None] @ d_a @ phi_[:, None]).reshape(b, nb, kk)
                      @ _swap(d_a.reshape(b, nb, kk)))
                bp = ((_swap(a_) @ x)[:, None] @ d_a).reshape(b, nb, kk) @ \
                    d_p.reshape(len(g_phi), kk).T
                total[:, g_beta[:, None], g_beta] = bb
                total[:, g_beta[:, None], g_phi] = bp
                total[:, g_phi[:, None], g_beta] = _swap(bp)
                total *= 2.0
                total[singular[at]] = np.nan
                return total

            out.append(second)
        return tuple(out)

    def sigma(self, theta: np.ndarray) -> np.ndarray:
        """The implied p x p covariance at ``theta``."""
        return self.forward(theta)[0]

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """d vech(Sigma) / d theta, a (p(p+1)/2 x q) matrix, from the
        forward pass's factor record."""
        return self.forward(theta, 1)[1].jacobian([0])[0]

    def check_grid(self, n: int) -> None:
        """Refuse a fit over ``n`` increments when n < p: the realized
        covariation is then singular and the fit runs off to the box."""
        if n < self.p:
            raise ValueError(f"grid size n={n} is below p={self.p}, the "
                             f"observed dimension of {self.name!r}")

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "dims": {"p1": self.p1, "p2": self.p2, "k1": self.k1, "k2": self.k2},
            "bounds": {"lower": self.lower.tolist(), "upper": self.upper.tolist()},
            **copy.deepcopy(self.patterns),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SemSpec":
        try:
            _doc.fields(doc, "spec", ("dims", "bounds") + _ROLES, ("name",),
                        schema=SCHEMA_VERSION)
            bounds = _doc.fields(doc["bounds"], "bounds", ("lower", "upper"))
            lower, upper = (_doc.array(bounds[key], f"bounds.{key}", ndim=1)
                            for key in ("lower", "upper"))
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        return cls(dims=doc["dims"], patterns={role: doc[role] for role in _ROLES},
                   lower=lower, upper=upper, name=doc.get("name", "model"))

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


def jacobian_rank(spec: SemSpec, theta: np.ndarray
                  ) -> tuple[np.ndarray, int, FactorRecord]:
    """``spec.jacobian(theta)``, its numeric rank and the factor record of
    the forward pass they come from: the one rank test of the rank screen,
    the identifiability check and ``gamma_zero``, which reads its
    information from the same record."""
    record = spec.forward(theta, 1)[1]
    jac = record.jacobian([0])[0]
    return jac, matkit.numeric_rank(jac), record


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
    U = half diag(q_xx), so the implied diagonal starts on the right scale.
    A ``q_xx`` that is not (p, p), or not finite, raises ``ValueError``."""
    if np.shape(q_xx) != (spec.p, spec.p):
        raise ValueError(f"quadratic covariation is {np.shape(q_xx)}, "
                         f"model observes p={spec.p}")
    if not np.all(np.isfinite(q_xx)):
        raise ValueError("quadratic covariation Q has non-finite entries")
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
