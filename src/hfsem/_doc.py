"""Field rules of the JSON documents (model specs, experiment configs,
truths and fit reports) and of grid sizes, horizons and seeds, each written
once, and the one lookup of the bundled documents by name.  A check raises
``ValueError`` naming the field; ``SemSpec`` re-raises it as ``SpecError``.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import numbers

import numpy as np

_PACKAGE = importlib.resources.files(__package__)


def _expect(ok: bool, value, where: str, what: str):
    """``value`` if ``ok``; else the one message for a field of a wrong type."""
    if not ok:
        raise ValueError(f"{where} must be {what}, got {value!r}")
    return value


def fields(doc, where: str, required=(), optional=(), schema=None) -> dict:
    """``doc`` checked to be an object with every ``required`` key and no
    key outside ``required`` and ``optional``; with ``schema`` given, its
    ``"schema"`` key must name that schema."""
    _expect(isinstance(doc, dict), doc, where, "an object")
    if schema is not None and doc.get("schema") != schema:
        raise ValueError(f"unsupported {where} schema {doc.get('schema')!r}")
    allowed = {*required, *optional} | ({"schema"} if schema else set())
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ValueError(f"{where} has unknown keys {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{where} is missing fields {missing}")
    return doc


def one_key(doc, where: str, keys) -> tuple:
    """The ``(key, value)`` of an object holding exactly one of ``keys``."""
    _expect(isinstance(doc, dict) and len(doc) == 1 and doc.keys() <= set(keys),
            doc, where, "an object with exactly one key, "
            + " or ".join(map(repr, keys)))
    return next(iter(doc.items()))


def is_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a number of ``kind``; a bool is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


def integer(value, where: str, least: int = 0) -> int:
    """An integer of at least ``least``: every count, size and seed."""
    ok = is_number(value, numbers.Integral) and value >= least
    return int(_expect(ok, value, where, f"an integer of at least {least}"))


def _beyond_float(where: str) -> ValueError:
    """The error for a JSON integer too large for a float."""
    return ValueError(f"{where} must be a number within float range, "
                      "got an integer beyond it")


def number(value, where: str) -> float:
    _expect(is_number(value), value, where, "a number")
    try:
        return float(value)
    except OverflowError:
        raise _beyond_float(where) from None


def horizon(value) -> float:
    ok = is_number(value) and math.isfinite(number(value, "T")) and value > 0
    return float(_expect(ok, value, "T", "a positive finite horizon"))


def flag(value, where: str) -> bool:
    return _expect(isinstance(value, bool), value, where, "true or false")


def text(value, where: str) -> str:
    return _expect(isinstance(value, str), value, where, "a string")


def model_name(value, where: str) -> str:
    """A model name, which the CSV outputs write as a bare cell."""
    return _expect(isinstance(value, str) and not set(value) & set(',"\r\n'),
                   value, where, "a string with no comma, double quote or line break")


def _numeric(value) -> bool:
    """Whether ``value`` is a number or nested lists of numbers only."""
    return (all(map(_numeric, value)) if isinstance(value, list)
            else is_number(value))


def array(value, where: str, ndim=None) -> np.ndarray:
    """A number or rectangular nested lists of numbers as a float array,
    of ``ndim`` dimensions when that is given."""
    try:
        a = np.array(value, dtype=float) if _numeric(value) else None
    except ValueError:  # ragged rows
        a = None
    except OverflowError:
        raise _beyond_float(where) from None
    what = ("a list of numbers" if ndim == 1
            else "a number or rectangular nested lists of numbers")
    _expect(a is not None and ndim in (None, a.ndim), value, where, what)
    return a


def items(value, where: str, read, *args) -> list:
    """A non-empty list, each item checked by ``read(item, where[i], *args)``."""
    _expect(isinstance(value, list) and len(value) > 0, value, where,
            "a non-empty list")
    return [read(item, f"{where}[{i}]", *args) for i, item in enumerate(value)]


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"cannot parse {path}: {exc}") from None


def bundled_names(folder: str) -> list[str]:
    """Stems of the JSON documents bundled in the package's ``folder``, sorted."""
    return sorted(f.name[:-len(".json")] for f in _PACKAGE.joinpath(folder).iterdir()
                  if f.name.endswith(".json"))


def read_bundled(folder: str, name: str, what: str):
    """The bundled ``<folder>/<name>.json``; an unknown name is a ValueError."""
    names = bundled_names(folder)
    if name not in names:
        raise ValueError(f"unknown {what} {name!r}; have {names}")
    return read_json(_PACKAGE.joinpath(folder).joinpath(f"{name}.json"))


def write_json(doc, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
