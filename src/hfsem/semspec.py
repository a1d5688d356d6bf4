"""Declarative candidate-model specifications and their implied covariance.

A :class:`SemSpec` describes one candidate structural model: which entries
of the loading matrices (``lambda_x1``, ``lambda_x2``), the structural
matrices (``b``, ``gamma``) and the four latent covariance matrices are
fixed constants and which are free parameters.  Free parameters are packed
into a single vector ``theta`` by index.

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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.optimize

from . import matkit
from .errors import SingularStructureError, SpecError

__all__ = [
    "Fixed",
    "Free",
    "PatternMatrix",
    "SemSpec",
    "ImpliedCov",
    "IdentifiabilityReport",
    "check_identifiability",
    "nested_embedding",
]

SCHEMA_VERSION = "hfsem-spec-v1"
CONSTRAINTS = ("none", "nonzero", "positive")

# Roles in canonical order; the *_sym entries are covariance patterns whose
# cell layout must be symmetric.
_ROLES = ("lambda_x1", "lambda_x2", "b", "gamma",
          "sigma_xixi", "sigma_dd", "sigma_ee", "sigma_zz")
_SYM_ROLES = frozenset({"sigma_xixi", "sigma_dd", "sigma_ee", "sigma_zz"})

_PSI_COND_LIMIT = 1e12


@dataclass(frozen=True)
class Fixed:
    """A cell pinned to a constant value."""
    value: float


@dataclass(frozen=True)
class Free:
    """A cell read from ``theta`` at position ``index``."""
    index: int
    constraint: str = "none"

    def __post_init__(self):
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

    def is_cell_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(i):
                if self.cells[i][j] != self.cells[j][i]:
                    return False
        return True

    @classmethod
    def fixed(cls, array: np.ndarray) -> "PatternMatrix":
        """All-fixed pattern holding the given values."""
        a = np.asarray(array, dtype=float)
        return cls([[Fixed(float(v)) for v in row] for row in a])


class _RoleLayout:
    """Assembly plan for one pattern matrix: fixed base + free-cell indices."""

    def __init__(self, pattern: PatternMatrix, symmetric: bool):
        self.symmetric = symmetric
        base = np.zeros(pattern.shape)
        rows, cols, idx, cons = [], [], [], []
        for i in range(pattern.rows):
            for j in range(pattern.cols):
                cell = pattern[i, j]
                if symmetric and j > i:
                    continue  # mirror handled from the lower triangle
                if isinstance(cell, Fixed):
                    base[i, j] = cell.value
                    if symmetric:
                        base[j, i] = cell.value
                else:
                    rows.append(i)
                    cols.append(j)
                    idx.append(cell.index)
                    cons.append(cell.constraint)
        self.base = base
        self.rows = np.asarray(rows, dtype=int)
        self.cols = np.asarray(cols, dtype=int)
        self.idx = np.asarray(idx, dtype=int)
        self.constraints = cons

    def assemble(self, theta: np.ndarray) -> np.ndarray:
        m = self.base.copy()
        if self.idx.size:
            m[self.rows, self.cols] = theta[self.idx]
            if self.symmetric:
                m[self.cols, self.rows] = theta[self.idx]
        return m

    def read(self, values: np.ndarray, theta: np.ndarray) -> None:
        if self.idx.size:
            theta[self.idx] = values[self.rows, self.cols]


def _swap(x: np.ndarray) -> np.ndarray:
    """Transpose of every matrix in a stack."""
    return np.swapaxes(x, -1, -2)


def _invert_psi(b: np.ndarray, name: str) -> np.ndarray:
    psi = np.eye(b.shape[0]) - b
    if np.linalg.cond(psi) > _PSI_COND_LIMIT:
        raise SingularStructureError(
            f"I - b is numerically singular for model {name!r}")
    return np.linalg.inv(psi)


@dataclass
class ImpliedCov:
    """The model-implied p x p covariance and its three blocks."""
    sigma: np.ndarray
    block11: np.ndarray
    block12: np.ndarray
    block22: np.ndarray


class SemSpec:
    """One candidate model: dimensions, patterns, parameter box.

    Parameters
    ----------
    dims : Mapping with keys p1, p2, k1, k2.
    patterns : Mapping from role name to :class:`PatternMatrix`; roles are
        lambda_x1 (p1 x k1), lambda_x2 (p2 x k2), b (k2 x k2, zero
        diagonal), gamma (k2 x k1), sigma_xixi (k1 x k1), sigma_dd
        (p1 x p1), sigma_ee (p2 x p2), sigma_zz (k2 x k2).
    lower, upper : per-parameter closed bounds, length q.
    name : identifier used in reports and file output.
    """

    def __init__(self, dims, patterns, lower, upper, name: str = "model"):
        self.name = str(name)
        try:
            self.p1, self.p2 = int(dims["p1"]), int(dims["p2"])
            self.k1, self.k2 = int(dims["k1"]), int(dims["k2"])
        except KeyError as exc:
            raise SpecError(f"missing dimension {exc}") from exc
        if min(self.p1, self.p2, self.k1, self.k2) < 1:
            raise SpecError("all dimensions must be positive")
        if self.k1 > self.p1 or self.k2 > self.p2:
            raise SpecError("factor dimensions cannot exceed observed dimensions")
        self.p = self.p1 + self.p2
        self.pbar = self.p * (self.p + 1) // 2

        expected = {
            "lambda_x1": (self.p1, self.k1),
            "lambda_x2": (self.p2, self.k2),
            "b": (self.k2, self.k2),
            "gamma": (self.k2, self.k1),
            "sigma_xixi": (self.k1, self.k1),
            "sigma_dd": (self.p1, self.p1),
            "sigma_ee": (self.p2, self.p2),
            "sigma_zz": (self.k2, self.k2),
        }
        self.patterns: dict[str, PatternMatrix] = {}
        self._layouts: dict[str, _RoleLayout] = {}
        for role in _ROLES:
            try:
                pat = patterns[role]
            except KeyError as exc:
                raise SpecError(f"missing pattern {role!r}") from exc
            if pat.shape != expected[role]:
                raise SpecError(
                    f"pattern {role!r} has shape {pat.shape}, expected {expected[role]}")
            if role in _SYM_ROLES and not pat.is_cell_symmetric():
                raise SpecError(f"covariance pattern {role!r} must be cell-symmetric")
            self.patterns[role] = pat
            self._layouts[role] = _RoleLayout(pat, role in _SYM_ROLES)

        for i in range(self.k2):
            cell = self.patterns["b"][i, i]
            if not (isinstance(cell, Fixed) and cell.value == 0.0):
                raise SpecError("diagonal of the b pattern must be fixed at zero")

        seen: dict[int, str] = {}
        for role in _ROLES:
            lay = self._layouts[role]
            for k, cons in zip(lay.idx, lay.constraints):
                if k in seen:
                    raise SpecError(f"theta index {k} used in both {seen[k]} and {role}")
                seen[int(k)] = role
        self.q = len(seen)
        if self.q and sorted(seen) != list(range(self.q)):
            raise SpecError("theta indices must cover 0..q-1 exactly once")

        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != (self.q,) or self.upper.shape != (self.q,):
            raise SpecError(f"bounds must have length q={self.q}")
        if np.any(self.lower >= self.upper):
            raise SpecError("lower bounds must be strictly below upper bounds")

        # Parameters that must stay positive: diagonal cells of covariance
        # patterns and anything with an explicit 'positive' constraint.
        self.positive_mask = np.zeros(self.q, dtype=bool)
        for role in _ROLES:
            lay = self._layouts[role]
            for r, c, k, cons in zip(lay.rows, lay.cols, lay.idx, lay.constraints):
                if cons == "positive" or (role in _SYM_ROLES and r == c):
                    self.positive_mask[k] = True
        if np.any(self.lower[self.positive_mask] <= 0.0):
            raise SpecError("variance-parameter bounds need positive lower ends")

        # All-y form: Lam = diag(L1, L2), Beta = [[0, 0], [G, B]],
        # P = diag(Phi, S_zz), U = diag(S_dd, S_ee).  Each is its fixed
        # base plus theta contracted with its unit stack d(matrix)/d(theta).
        p1, k1, k = self.p1, self.k1, self.k1 + self.k2
        shapes = ((self.p, k), (k, k), (k, k), (self.p, self.p))
        place = {"lambda_x1": (0, 0, 0), "lambda_x2": (0, p1, k1),
                 "gamma": (1, k1, 0), "b": (1, k1, k1),
                 "sigma_xixi": (2, 0, 0), "sigma_zz": (2, k1, k1),
                 "sigma_dd": (3, 0, 0), "sigma_ee": (3, p1, p1)}
        self._bases = [np.zeros(s) for s in shapes]
        self._units = [np.zeros((self.q,) + s) for s in shapes]
        for role, (m, r0, c0) in place.items():
            lay = self._layouts[role]
            rows, cols = lay.base.shape
            self._bases[m][r0:r0 + rows, c0:c0 + cols] = lay.base
            unit = self._units[m]
            unit[lay.idx, r0 + lay.rows, c0 + lay.cols] = 1.0
            if lay.symmetric:
                unit[lay.idx, r0 + lay.cols, c0 + lay.rows] = 1.0

        self._curved = np.flatnonzero(~self._units[3].any(axis=(1, 2)))

        # A fixed b is checked once here; a free one on every pass.
        self._psi_inv = None
        if not self._layouts["b"].idx.size:
            try:
                self._psi_inv = _invert_psi(self._layouts["b"].base, self.name)
            except SingularStructureError as exc:
                raise SpecError(str(exc)) from exc

        self._vech_rows, self._vech_cols = matkit.vech_indices(self.p)

    # -- theta packing -----------------------------------------------------

    def pack(self, values: dict[str, np.ndarray]) -> np.ndarray:
        """Read free cells out of concrete matrices into a theta vector.

        Fixed cells must match the pattern, free values must respect their
        sign constraints; shape mismatches raise :class:`SpecError`.
        """
        theta = np.full(self.q, np.nan)
        for role in _ROLES:
            lay = self._layouts[role]
            try:
                m = np.asarray(values[role], dtype=float)
            except KeyError as exc:
                raise SpecError(f"missing matrix {role!r}") from exc
            if m.shape != self.patterns[role].shape:
                raise SpecError(
                    f"matrix {role!r} has shape {m.shape}, "
                    f"expected {self.patterns[role].shape}")
            fixed_mask = np.ones(m.shape, dtype=bool)
            fixed_mask[lay.rows, lay.cols] = False
            if lay.symmetric:
                fixed_mask[lay.cols, lay.rows] = False
                if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
                    raise SpecError(f"matrix {role!r} must be symmetric")
            if np.abs((m - lay.base)[fixed_mask]).max(initial=0.0) > 0.0:
                raise SpecError(f"matrix {role!r} alters fixed cells")
            for r, c, cons in zip(lay.rows, lay.cols, lay.constraints):
                v = m[r, c]
                if cons == "nonzero" and v == 0.0:
                    raise SpecError(f"{role}[{r},{c}] must be nonzero")
                if cons == "positive" and v <= 0.0:
                    raise SpecError(f"{role}[{r},{c}] must be positive")
            lay.read(m, theta)
        return theta

    def unpack(self, theta: np.ndarray) -> dict[str, np.ndarray]:
        """Assemble all eight concrete matrices at ``theta``."""
        theta = self._check_theta(theta)
        return {role: self._layouts[role].assemble(theta) for role in _ROLES}

    def _check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.q,):
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
        """
        theta = self._check_theta(theta)
        lam, beta, phi, u = (
            base + (theta @ unit.reshape(self.q, base.size)).reshape(base.shape)
            for base, unit in zip(self._bases, self._units))
        k1 = self.k1
        psi_inv = self._psi_inv
        if psi_inv is None:
            psi_inv = _invert_psi(beta[k1:, k1:], self.name)
        a = np.eye(k1 + self.k2)
        a[k1:, :k1] = psi_inv @ beta[k1:, :k1]
        a[k1:, k1:] = psi_inv
        c = a @ phi @ a.T
        c_lam = c @ lam.T
        sigma = lam @ c_lam + u
        sigma = 0.5 * (sigma + sigma.T)
        if order == 0:
            return (sigma,)

        # dC_i = y_i + y_i', dSigma_i = z_i + z_i' (P, U and C symmetric).
        d_lam, d_beta, d_phi, d_u = self._units
        d_a = a @ d_beta @ a
        phi_a = phi @ a.T
        y = d_a @ phi_a + 0.5 * (a @ d_phi @ a.T)
        d_c = y + _swap(y)
        z = d_lam @ c_lam + lam @ y @ lam.T + 0.5 * d_u
        d1 = z + _swap(z)
        if order == 1:
            return sigma, d1

        # Second order.  Sigma is linear in U, so only the other parameters
        # have second derivatives; their pairs (i, j) run on the two
        # leading axes.
        cv = self._curved
        d_lam, d_beta, d_phi, d_a, d_c = (
            x[cv] for x in (d_lam, d_beta, d_phi, d_a, d_c))
        di, dj = (slice(None), None), (None, slice(None))
        d2_a = d_a[dj] @ d_beta[di] @ a + a @ d_beta[di] @ d_a[dj]
        y2 = (d2_a @ phi_a + d_a[di] @ d_phi[dj] @ a.T
              + d_a[dj] @ d_phi[di] @ a.T + d_a[di] @ phi @ _swap(d_a)[dj])
        z2 = (d_lam[di] @ c @ _swap(d_lam)[dj] + d_lam[di] @ d_c[dj] @ lam.T
              + d_lam[dj] @ d_c[di] @ lam.T + lam @ y2 @ lam.T)
        d2 = np.zeros((self.q, self.q, self.p, self.p))
        d2[np.ix_(cv, cv)] = z2 + _swap(z2)
        return sigma, d1, d2

    def implied_cov(self, theta: np.ndarray) -> ImpliedCov:
        """The implied covariance of the observed process at ``theta``."""
        sigma = self.sigma(theta)
        p1 = self.p1
        return ImpliedCov(sigma=sigma, block11=sigma[:p1, :p1],
                          block12=sigma[:p1, p1:], block22=sigma[p1:, p1:])

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
        if doc.get("schema") != SCHEMA_VERSION:
            raise SpecError(f"unsupported schema {doc.get('schema')!r}")

        def cell_in(obj: dict) -> Fixed | Free:
            if "fixed" in obj:
                return Fixed(float(obj["fixed"]))
            if "free" in obj:
                f = obj["free"]
                if "index" not in f:
                    raise SpecError(f"free cell without 'index': {obj!r}")
                return Free(int(f["index"]), str(f.get("constraint", "none")))
            raise SpecError(f"cell must have 'fixed' or 'free', got {obj!r}")

        patterns = {}
        for role in _ROLES:
            if role not in doc:
                raise SpecError(f"missing pattern {role!r}")
            patterns[role] = PatternMatrix(
                [[cell_in(c) for c in row] for row in doc[role]])
        for key in ("dims", "bounds"):
            if key not in doc:
                raise SpecError(f"missing field {key!r}")
        bounds = doc["bounds"]
        for key in ("lower", "upper"):
            if key not in bounds:
                raise SpecError(f"missing field 'bounds.{key}'")
        return cls(dims=doc["dims"], patterns=patterns,
                   lower=bounds["lower"], upper=bounds["upper"],
                   name=doc.get("name", "model"))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "SemSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# -- identifiability ---------------------------------------------------------

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


def _probe_start(spec: SemSpec, rng: np.random.Generator) -> np.ndarray:
    """A random interior point; positive parameters drawn log-uniformly."""
    pos = spec.positive_mask
    lo = np.where(pos, np.maximum(spec.lower, 1e-2), np.maximum(spec.lower, -10.0))
    hi = np.where(pos, np.minimum(spec.upper, 1e2), np.minimum(spec.upper, 10.0))
    u = rng.uniform(size=spec.q)
    theta = lo + u * (hi - lo)
    theta[pos] = np.exp(np.log(lo[pos]) + u[pos] * (np.log(hi[pos]) - np.log(lo[pos])))
    return theta


def check_identifiability(spec: SemSpec, theta0: np.ndarray, trials: int = 50,
                          seed: int = 0, rank_rtol: float = 1e-8,
                          sigma_tol: float = 1e-8,
                          theta_tol: float = 1e-6) -> IdentifiabilityReport:
    """Check the rank condition and probe local injectivity at ``theta0``.

    The rank condition asks that the covariance Jacobian at ``theta0`` have
    full column rank q.  The injectivity probe minimizes the squared
    Frobenius distance ``|Sigma(theta) - Sigma(theta0)|_F^2`` from random
    starts; any minimizer that reproduces the covariance (distance below
    ``sigma_tol``) while sitting away from ``theta0`` (distance at least
    ``theta_tol``) is recorded as a failure witness.
    """
    theta0 = np.asarray(theta0, dtype=float)
    delta0 = spec.jacobian(theta0)
    rank = matkit.numeric_rank(delta0, rank_rtol)
    rank_ok = rank == spec.q

    collinear = None
    if not rank_ok and spec.q >= 2:
        # Surface one offending pair for the report.
        norms = np.linalg.norm(delta0, axis=0)
        unit = delta0 / np.where(norms > 0, norms, 1.0)
        corr = np.abs(unit.T @ unit)
        np.fill_diagonal(corr, 0.0)
        i, j = np.unravel_index(np.argmax(corr), corr.shape)
        if corr[i, j] > 1.0 - 1e-8:
            collinear = (int(min(i, j)), int(max(i, j)))

    sigma0 = spec.sigma(theta0)
    # Off-diagonal vech entries count twice in the Frobenius norm, so the
    # weighted residual 2-norm equals the Frobenius distance exactly.
    sqrt_w = np.sqrt(np.where(spec._vech_rows == spec._vech_cols, 1.0, 2.0))
    pbar = sqrt_w.size

    def residual(theta):
        try:
            return sqrt_w * matkit.vech(spec.sigma(theta) - sigma0)
        except SingularStructureError:
            return np.full(pbar, 1e50)

    def residual_jac(theta):
        try:
            return sqrt_w[:, None] * spec.jacobian(theta)
        except SingularStructureError:
            return np.zeros((pbar, spec.q))

    rng = np.random.default_rng(seed)
    witnesses = []
    found = 0
    for trial in range(int(trials)):
        if trial % 2 == 0:
            # Local start: perturb theta0 so the minimization lands back on
            # a genuine preimage, making the distance test substantive.
            factor = rng.uniform(0.7, 1.4, size=spec.q)
            shift = rng.uniform(-0.5, 0.5, size=spec.q)
            start = np.where(spec.positive_mask, theta0 * factor, theta0 + shift)
            start = np.clip(start, spec.lower, spec.upper)
        else:
            start = _probe_start(spec, rng)
        res = scipy.optimize.least_squares(
            residual, start, jac=residual_jac, method="trf",
            bounds=(spec.lower, spec.upper),
            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=400)
        dist = float(np.linalg.norm(res.fun))
        if dist < sigma_tol:
            found += 1
            gap = float(np.linalg.norm(res.x - theta0))
            if gap >= theta_tol:
                witnesses.append({"theta": res.x.copy(), "sigma_dist": dist,
                                  "theta_dist": gap})
    return IdentifiabilityReport(
        model=spec.name, q=spec.q, rank=rank, rank_ok=rank_ok,
        trials=int(trials), preimages_found=found, witnesses=witnesses,
        collinear_columns=collinear)


# -- nested embedding ---------------------------------------------------------

def nested_embedding(inner: SemSpec, outer: SemSpec):
    """Structural embedding of ``inner`` into ``outer``, if one exists.

    Returns ``(F, c)`` with ``F.T @ F = I`` such that evaluating the outer
    model at ``F @ theta + c`` reproduces the inner model's matrices at
    ``theta`` for every theta, or ``None`` when the patterns do not align.
    Matched free cells become unit columns of ``F``; outer-only free cells
    take the inner fixed value through ``c``.
    """
    if (inner.p1, inner.p2, inner.k1, inner.k2) != \
            (outer.p1, outer.p2, outer.k1, outer.k2):
        return None
    if inner.q > outer.q:
        return None

    index_map: dict[int, int] = {}
    offsets: dict[int, float] = {}
    for role in _ROLES:
        pin, pout = inner.patterns[role], outer.patterns[role]
        for i in range(pin.rows):
            for j in range(pin.cols):
                ci, co = pin[i, j], pout[i, j]
                if isinstance(ci, Fixed) and isinstance(co, Fixed):
                    if ci.value != co.value:
                        return None
                elif isinstance(ci, Fixed):
                    prev = offsets.get(co.index)
                    if prev is not None and prev != ci.value:
                        return None
                    offsets[co.index] = ci.value
                elif isinstance(co, Free):
                    prev = index_map.get(ci.index)
                    if prev is not None and prev != co.index:
                        return None
                    index_map[ci.index] = co.index
                else:
                    return None  # inner free where outer is pinned

    if len(index_map) != inner.q or len(set(index_map.values())) != inner.q:
        return None
    f = np.zeros((outer.q, inner.q))
    for i_inner, i_outer in index_map.items():
        f[i_outer, i_inner] = 1.0
    c = np.zeros(outer.q)
    for i_outer, value in offsets.items():
        if i_outer in index_map.values():
            return None
        c[i_outer] = value
    return f, c
