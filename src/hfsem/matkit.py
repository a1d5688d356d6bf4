"""Dense linear-algebra kernels used throughout the package.

Half-vectorization, the duplication matrix, Cholesky log-determinant/inverse,
and numeric rank.  All functions are pure and operate on plain ``numpy``
arrays.

Conventions
-----------
``vec`` stacks columns (Fortran order).  ``vech`` stacks the columns of the
lower triangle including the diagonal: (1,1),(2,1),...,(p,1),(2,2),... .
The duplication matrix is built for exactly these orderings, so
``duplication_matrix(p) @ vech(A) == vec(A)`` for symmetric ``A``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefiniteError

__all__ = [
    "vech",
    "vech_indices",
    "duplication_matrix",
    "chol_logdet",
    "numeric_rank",
    "check_symmetric",
]

_SYM_TOL = 1e-8
_RANK_REL_TOL = 1e-8


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate that ``a`` is square and symmetric; return the symmetrized copy.

    Raises ``ValueError`` on non-square input, asymmetry beyond ``_SYM_TOL``
    (relative to the largest entry), or non-finite entries.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, np.abs(a).max())
    if np.abs(a - a.T).max() > _SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    return 0.5 * (a + a.T)


def vech_indices(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the lower triangle in vech order (column-major)."""
    rows = np.concatenate([np.arange(j, p) for j in range(p)])
    cols = np.repeat(np.arange(p), np.arange(p, 0, -1))
    return rows, cols


def vech(a: np.ndarray) -> np.ndarray:
    """Half-vectorize a symmetric matrix into a vector of length p(p+1)/2."""
    a = check_symmetric(a)
    rows, cols = vech_indices(a.shape[0])
    return a[rows, cols]


def duplication_matrix(p: int) -> np.ndarray:
    """The p^2 x p(p+1)/2 duplication matrix mapping vech(A) to vec(A).

    Each row holds a single 1.  Row ``i + j*p`` (the vec slot of entry
    (i, j)) points at the vech slot of (max(i,j), min(i,j)).
    """
    if p < 1:
        raise ValueError("order must be at least 1")
    pbar = p * (p + 1) // 2
    rows, cols = vech_indices(p)
    slot = np.zeros((p, p), dtype=int)
    slot[rows, cols] = np.arange(pbar)
    slot[cols, rows] = slot[rows, cols]
    d = np.zeros((p * p, pbar))
    i, j = np.meshgrid(np.arange(p), np.arange(p), indexing="ij")
    d[(i + j * p).ravel(), slot.ravel()] = 1.0
    return d


def chol_logdet(a: np.ndarray) -> tuple[float, np.ndarray]:
    """``(logdet, inverse)`` of a symmetric positive definite matrix from one
    Cholesky factorization.  Raises :class:`NotPositiveDefiniteError` when it
    fails; callers probing a parameter space treat that as out of region."""
    logdet, inv, info = _chol_lanes(check_symmetric(a)[None])
    if info[0] != 0:
        raise NotPositiveDefiniteError(
            f"leading minor {info[0]} is not positive definite")
    return float(logdet[0]), inv[0]


def _chol_lanes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(logdet, inverse, info)`` of each finite symmetric matrix of a
    stack, from one LAPACK Cholesky factorization each.  ``info`` is
    LAPACK's, nonzero where the matrix is not positive definite; such a
    matrix gets logdet 0 and the identity as inverse."""
    eye = np.eye(a.shape[-1])
    factor, inv = np.empty_like(a), np.empty_like(a)
    info = np.zeros(len(a), dtype=int)
    for b, matrix in enumerate(a):
        c, info[b] = lapack.dpotrf(matrix, lower=1, clean=0)
        if info[b]:
            factor[b] = inv[b] = eye
            continue
        factor[b] = c
        inv[b] = lapack.dpotrs(c, eye, lower=1)[0]
    logdet = 2.0 * np.log(np.diagonal(factor, axis1=1, axis2=2)).sum(axis=1)
    return logdet, 0.5 * (inv + np.swapaxes(inv, -1, -2)), info


def numeric_rank(a: np.ndarray) -> int:
    """Number of singular values above ``_RANK_REL_TOL`` times the largest."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > _RANK_REL_TOL * s[0]))
