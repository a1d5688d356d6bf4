"""The three bundled candidate models used by the selection benchmark.

All three share the observation layout p1=4, p2=6 with a single first-block
factor.  Model "model1" (q=22) and "model2" (q=23, one extra cross loading)
reproduce the data-generating covariance exactly; "model2" strictly contains
"model1".  Model "model3" (q=21) collapses the second block to a single
factor and cannot reproduce the truth.

Free parameters are indexed 0-based in reading order: first-block loadings,
second-block loadings, factor regression, factor variance, then the unique
variances.  ``THETA1_TRUE`` / ``THETA2_TRUE`` are the parameter points at
which models 1 and 2 match the data-generating covariance.

The JSON documents under ``model_files/`` (schema ``hfsem-spec-v1``) are
the model definitions; a builtin's name is its file stem.  Their boxes put
variance parameters in [1e-6, 1e4] and every other parameter in
[-1e3, 1e3].  ``load_builtin`` reads one by name, and ``resolve_spec``
accepts either a file path or a builtin name.
"""

from __future__ import annotations

import os

import numpy as np

from . import _doc
from .errors import SpecError
from .semspec import SemSpec

__all__ = [
    "THETA1_TRUE",
    "THETA2_TRUE",
    "builtin_names",
    "load_builtin",
    "resolve_spec",
]

THETA1_TRUE = np.array(
    [3, 4, 6, 3, 2, 2, 4, 3, 2, 9, 4, 1, 4, 9, 25, 1, 4, 1, 9, 4, 9, 1],
    dtype=float)
THETA2_TRUE = np.array(
    [3, 4, 6, 3, 2, 0, 2, 4, 3, 2, 9, 4, 1, 4, 9, 25, 1, 4, 1, 9, 4, 9, 1],
    dtype=float)


def builtin_names() -> list[str]:
    """Stems of the bundled ``model_files/*.json`` documents, sorted."""
    return _doc.bundled_names("model_files")


def load_builtin(name: str) -> SemSpec:
    """Load one of the bundled model documents by name."""
    try:
        doc = _doc.read_bundled("model_files", name, "builtin model")
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    return SemSpec.from_dict(doc)


def resolve_spec(path_or_name: str) -> SemSpec:
    """Load a model spec from a JSON file path or a builtin name."""
    # os.path.exists takes an integer as an open file descriptor.
    if not isinstance(path_or_name, (str, os.PathLike)):
        raise SpecError(f"model spec must be a path or a builtin name, "
                        f"got {path_or_name!r}")
    if os.path.exists(path_or_name):
        return SemSpec.from_json(path_or_name)
    if path_or_name in builtin_names():
        return load_builtin(path_or_name)
    raise SpecError(f"{path_or_name!r} is neither a file nor a builtin model")
