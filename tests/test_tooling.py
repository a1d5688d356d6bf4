"""Static checks on the package source and the benchmark's hooks into it."""

import ast
import importlib
import json
import pathlib

import pytest

from hfsem.semspec import SemSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hfsem"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads.

    ``import a.b`` counts as read only where ``a.b`` itself is, so a second
    submodule import under a used package is still caught.  Names listed
    in ``__all__`` and ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = set()
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, (ast.Attribute, ast.Name)) else None
        if chain:
            parts = chain.split(".")
            read |= {".".join(parts[:k]) for k in range(1, len(parts) + 1)}
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_catches_unused_names():
    source = ("import os\nimport scipy.linalg\nimport scipy.signal\n"
              "from typing import Callable, Optional\n"
              "x: Optional[int] = scipy.signal.lfilter\n")
    assert unused_imports(source) == ["Callable", "os", "scipy.linalg"]


def test_perfbench_targets_exist(monkeypatch):
    # The traced benchmark wraps each callable where its caller looks it
    # up; a renamed or moved one would break the trace.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in layers.targets()
               if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("path", sorted((SRC / "model_files").glob("*.json")),
                         ids=lambda p: p.name)
def test_model_files_are_canonical(path):
    # Every key of a bundled spec is one the reader uses, in the form the
    # writer gives back.
    doc = json.loads(path.read_text())
    assert SemSpec.from_dict(doc).to_dict() == doc
