"""Static checks on the package source and the benchmark's hooks into it."""

import ast
import dataclasses
import importlib
import inspect
import json
import pathlib
import re

import numpy as np
import pytest

from hfsem import diffsim, harness, models, qmle
from hfsem.qlik import LikelihoodSurface
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


def optimizer_imports(source: str) -> list[str]:
    """The ``scipy.optimize`` modules and names a module imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [f"{node.module}.{a.name}" for a in node.names]
    return [name for name in found if (name + ".").startswith("scipy.optimize.")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_optimizer(path):
    # qmle._optimize is the library's one optimizer: the likelihood fits
    # and the injectivity probe run as its lanes.
    assert optimizer_imports(path.read_text()) == []


def test_optimizer_scan_catches_imports():
    lines = ["import scipy.optimize as so", "from scipy import optimize",
             "from scipy.optimize import least_squares",
             "import numpy, scipy.optimize"]
    assert [len(optimizer_imports(line)) for line in lines] == [1, 1, 1, 1]
    assert optimizer_imports("from scipy import linalg\nimport scipy") == []


LAYOUT_NAMES = {"patterns", "_units", "_bases", "Fixed", "Free"}


def layout_reads(source: str) -> list[str]:
    """The layout names a module reads as attributes (a spec's
    ``patterns``, ``_units``, ``_bases``; ``semspec.Fixed``/``Free``) or
    imports (the cell classes)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names} & LAYOUT_NAMES
    return sorted(found)


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name not in ("semspec.py", "__init__.py")),
    ids=lambda p: p.name)
def test_layout_read_only_in_semspec(path):
    # The pattern cells, bases and unit stacks are semspec's alone; the
    # package's __init__ only re-exports the cell classes.
    assert layout_reads(path.read_text()) == []


def test_layout_scan_catches_reads():
    source = ("from .semspec import Free, SemSpec\nfrom . import semspec\n"
              "x = spec.patterns['b'], spec._units[0], spec._bases\n"
              "y = semspec.Fixed(1.0)\n")
    assert layout_reads(source) == ["Fixed", "Free", "_bases", "_units",
                                    "patterns"]


def test_perfbench_targets_exist(monkeypatch):
    # The traced benchmark wraps each callable where its caller looks it
    # up; a renamed or moved one would break the trace.  The tracer reads a
    # method from its class's own __dict__, so an inherited one is missing.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in layers.targets()
               if not (attr in owner.__dict__ if isinstance(owner, type)
                       else hasattr(owner, attr))]
    assert missing == []


def test_perfbench_fine_grid_call_binds(quadvar_1e4):
    # fine_grid fits each path with exactly this call.
    surface = LikelihoodSurface(models.load_builtin("model1"), quadvar_1e4)
    call = dict(init=models.THETA1_TRUE,
                options=qmle.FitOptions(compute_hessian=False))
    inspect.signature(qmle.fit).bind(surface, **call)
    report = qmle.fit(surface, **call)
    assert isinstance(report, qmle.FitReport)
    assert np.all(np.isnan(report.hessian))


def test_experiment_config_fields():
    # A run is set by these fields alone; the replication chunk size, for
    # one, is a constant of the harness, not a setting.
    assert [f.name for f in dataclasses.fields(harness.ExperimentConfig)] == [
        "n_values", "T", "replications", "master_seed", "model_spec_paths",
        "criteria", "starts", "true_model", "init_mode", "workers"]


@pytest.mark.parametrize("path", sorted((SRC / "model_files").glob("*.json")),
                         ids=lambda p: p.name)
def test_model_files_are_canonical(path):
    # Every key of a bundled spec is one the reader uses, in the form the
    # writer gives back.
    doc = json.loads(path.read_text())
    assert SemSpec.from_dict(doc).to_dict() == doc


def test_json_read_and_written_in_one_module():
    # Every JSON document goes through hfsem._doc's read_json/write_json.
    importers = sorted(path.name for path in SRC.glob("*.py")
                       if re.search(r"^import json$", path.read_text(), re.M))
    assert importers == ["_doc.py"]


@pytest.mark.parametrize("path", sorted((SRC / "truth_files").glob("*.json")),
                         ids=lambda p: p.name)
def test_truth_files_load(path):
    # A bundled truth is read by its stem, is a valid config's true_model,
    # and implies a positive-definite covariance.
    diffsim.load_truth(path.stem)
    harness.ExperimentConfig(n_values=[100], T=1.0, replications=1,
                             master_seed=0, model_spec_paths=["model1"],
                             true_model=path.stem).validate()
    assert np.linalg.eigvalsh(harness.truth_sigma(path.stem)).min() > 0


README_JSON = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(),
                         re.DOTALL)


@pytest.mark.parametrize("text", README_JSON,
                         ids=[f"block{i}" for i in range(len(README_JSON))])
def test_readme_json_loads(text):
    # A config example loads as a config; the custom-truth example gives
    # the truth's covariance.
    doc = json.loads(text)
    if doc.get("schema") == harness.CONFIG_SCHEMA:
        harness.ExperimentConfig.from_dict(doc)
    else:
        assert harness.truth_sigma(doc).shape == (4, 4)


def test_readme_has_config_and_truth_examples():
    schemas = [json.loads(text).get("schema") for text in README_JSON]
    assert schemas.count(harness.CONFIG_SCHEMA) == 1 and None in schemas
