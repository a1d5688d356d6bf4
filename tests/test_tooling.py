"""Static checks on the package source and the benchmark's hooks into it."""

import ast
import dataclasses
import importlib
import inspect
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from hfsem import diffsim, harness, infocrit, models, qmle
from hfsem.cli import table1
from hfsem.qlik import LikelihoodSurface
from hfsem.semspec import SemSpec
from tests.conftest import all_specs, interior_theta

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


def module_imports(source: str, module: str) -> list[str]:
    """The modules and names of ``module`` (say ``scipy.optimize``) that a
    module imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found += [f"{node.module}.{a.name}" for a in node.names]
    return [name for name in found if (name + ".").startswith(module + ".")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_optimizer(path):
    # qmle._optimize is the library's one optimizer: the likelihood fits
    # and the injectivity probe run as its lanes.
    assert module_imports(path.read_text(), "scipy.optimize") == []


def test_optimizer_scan_catches_imports():
    lines = ["import scipy.optimize as so", "from scipy import optimize",
             "from scipy.optimize import least_squares",
             "import numpy, scipy.optimize"]
    assert [len(module_imports(line, "scipy.optimize"))
            for line in lines] == [1, 1, 1, 1]
    assert module_imports("from scipy import linalg\nimport scipy",
                          "scipy.optimize") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_stats(path):
    # Latin-hypercube starts are drawn in numpy (qmle._latin_hypercube),
    # so no module needs scipy.stats, a large import of its own.
    assert module_imports(path.read_text(), "scipy.stats") == []


def test_stats_scan_catches_imports():
    lines = ["import scipy.stats as st", "from scipy import stats",
             "from scipy.stats import qmc", "from scipy.stats.qmc import Sobol",
             "import numpy, scipy.stats"]
    assert [len(module_imports(line, "scipy.stats"))
            for line in lines] == [1, 1, 1, 1, 1]
    assert module_imports("from scipy import linalg, signal\nimport scipy",
                          "scipy.stats") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_signal(path):
    # A decoupled block's path is one banded BLAS solve (diffsim._chunk_path),
    # so no module needs scipy.signal, which also loads scipy.stats.
    assert module_imports(path.read_text(), "scipy.signal") == []


def test_signal_scan_catches_imports():
    lines = ["import scipy.signal as ss", "from scipy import signal",
             "from scipy.signal import lfilter",
             "from scipy.signal.windows import hann",
             "import numpy, scipy.signal"]
    assert [len(module_imports(line, "scipy.signal"))
            for line in lines] == [1, 1, 1, 1, 1]
    assert module_imports("from scipy import linalg, stats\nimport scipy",
                          "scipy.signal") == []


def thread_imports(source: str) -> list[str]:
    """The ``threading`` and ``concurrent.futures`` names a module imports."""
    return (module_imports(source, "threading")
            + module_imports(source, "concurrent.futures"))


# Callables that start threads or processes, or pools of either.
WORKER_BUILDER = re.compile(
    r"(?:Executor|Thread|ThreadPool|Pool|Process|Timer)$")


def import_time_workers(source: str) -> list[int]:
    """Lines that build an executor, pool, thread or process when the module
    is imported: in the module's or a class's body, a decorator or a
    default value, not in a function's body."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            parts = [*node.decorator_list, *node.args.defaults,
                     *filter(None, node.args.kw_defaults)]
        elif isinstance(node, ast.Lambda):
            parts = [*node.args.defaults, *filter(None, node.args.kw_defaults)]
        else:
            parts = ast.iter_child_nodes(node)
            callee = node.func if isinstance(node, ast.Call) else None
            name = getattr(callee, "attr", getattr(callee, "id", ""))
            if WORKER_BUILDER.search(name):
                found.append(node.lineno)
        for part in parts:
            visit(part)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_threads_in_diffsim_alone(path):
    # The simulator draws a long path's next chunk on a helper thread that
    # lives for one call; no other module runs threads, and importing a
    # module starts no worker of any kind.
    if path.name != "diffsim.py":
        assert thread_imports(path.read_text()) == []
    assert import_time_workers(path.read_text()) == []


def test_thread_scan_catches_imports_and_workers():
    lines = ["import threading", "from threading import Thread",
             "import concurrent.futures as cf", "from concurrent import futures",
             "from concurrent.futures import ThreadPoolExecutor",
             "import numpy, threading"]
    assert [len(thread_imports(line)) for line in lines] == [1, 1, 1, 1, 1, 1]
    assert thread_imports("import queue\nfrom concurrent import interpreters"
                          ) == []
    source = "\n".join([
        "POOL = ThreadPoolExecutor(max_workers=1)",              # 1
        "class Holder:",                                          # 2
        "    pool = multiprocessing.get_context('spawn').Pool(2)",  # 3
        "def run(pool=cf.ProcessPoolExecutor()):",                # 4
        "    with ThreadPoolExecutor(max_workers=1) as pool:",    # 5
        "        threading.Thread(target=print).start()",         # 6
        "@functools.lru_cache(maxsize=None)",                     # 7
        "def cached(): return threading.Timer(1.0, print)",       # 8
        "late = lambda pool=ThreadPool(2): multiprocessing.Process()",  # 9
        "helper = threading.Thread(target=print)",                # 10
    ])
    assert import_time_workers(source) == [1, 3, 4, 9, 10]
    assert thread_imports((SRC / "diffsim.py").read_text()) == [
        "concurrent.futures.ThreadPoolExecutor"]


# Callables that build a thread, or an executor or pool of threads.
THREAD_BUILDER = re.compile(r"(?:Executor|Thread|ThreadPool|Timer)$")


def thread_sites(source: str) -> list[tuple]:
    """``(function, line)`` of each call that builds a thread or a thread
    pool, by the innermost function around it (None outside any)."""
    found = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if THREAD_BUILDER.search(name):
                found.append((owner, node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_one_helper_pool_in_simulate_custom():
    # A long path's draw-ahead runs on the one-worker pool simulate_custom
    # opens; a chunk-level simulator is to reuse it, and build no second.
    sites = [(path.name, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _ in thread_sites(path.read_text())]
    assert sites == [("diffsim.py", "simulate_custom")]


def test_thread_site_scan_catches_every_builder():
    source = "\n".join([
        "POOL = ThreadPoolExecutor(max_workers=1)",               # 1
        "def simulate(pool=cf.ThreadPoolExecutor()):",            # 2
        "    with multiprocessing.Pool(2) as workers:",           # 3
        "        def draw(): return threading.Thread(target=print)",  # 4
        "    threading.Timer(1.0, print).start()",                # 5
        "class Holder:",                                          # 6
        "    def run(self): return ThreadPool(2)",                # 7
    ])
    assert thread_sites(source) == [(None, 1), ("simulate", 2), ("draw", 4),
                                    ("simulate", 5), ("run", 7)]


def sized_draws(source: str) -> list[int]:
    """Lines of the ``standard_normal(`` calls that pass no ``out=``, and
    so allocate the array they return."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", ""))
                  == "standard_normal"
                  and not any(k.arg == "out" for k in node.keywords))


def test_every_draw_fills_an_array():
    # The thread that calls the simulator allocates the normals, and a draw
    # only fills them, on whichever thread it runs: a helper thread that
    # allocates keeps a heap of its own for the process's life.
    draws = {path.name: sized_draws(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in draws.items() if lines} == {}
    assert "standard_normal(out=" in (SRC / "diffsim.py").read_text()


def test_draw_scan_catches_a_sized_draw():
    source = "\n".join([
        "def _draw(rngs, blocks, start, stop):",                        # 1
        "    return [rng.standard_normal((stop - start - (start == 0), "
        "block.dim))",                                                  # 2
        "            for rng, block in zip(rngs, blocks)]",             # 3
        "z = standard_normal(size=3)",                                  # 4
        "rng.standard_normal(out=z)",                                   # 5
        "np.random.default_rng(0).standard_normal()",                   # 6
    ])
    assert sized_draws(source) == [2, 4, 6]


def test_runtime_loads_no_scipy_signal_or_stats():
    # The scans above see a module's own imports; a fresh interpreter also
    # sees what those import in turn, on a simulated path and its Q.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import hfsem; "
             "from hfsem import diffsim, qlik; "
             "bundle = diffsim.simulate_true_model(100, 1.0, seed=0); "
             "qlik.quad_var(bundle.x_obs, bundle.T); "
             "print(sorted(m for m in sys.modules if m == 'scipy.signal' "
             "or m.startswith(('scipy.signal.', 'scipy.stats'))))")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


LAYOUT_NAMES = {"patterns", "_units", "_bases", "_factors", "_gram_pairs",
                "_second_tables"}


def layout_reads(source: str) -> list[str]:
    """The layout names a module reads as attributes of a spec
    (``patterns``, ``_units``, ``_bases`` and the factor tables
    ``_factors``, ``_gram_pairs`` and ``_second_tables``) or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found |= {a.name for a in node.names} & LAYOUT_NAMES
    return sorted(found)


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "semspec.py"), ids=lambda p: p.name)
def test_layout_read_only_in_semspec(path):
    # The pattern cells, bases and unit stacks, and the factor tables of
    # the derivative record, are semspec's alone.
    assert layout_reads(path.read_text()) == []


def test_layout_scan_catches_reads():
    source = ("from .semspec import _units, SemSpec\nfrom . import semspec\n"
              "x = spec.patterns['b'], spec._units[0], spec._bases\n"
              "u, v, w = self._spec._factors\nfrom .semspec import _gram_pairs\n"
              "y = spec.name, semspec.SemSpec, spec.factors, gram_pairs\n")
    assert layout_reads(source) == ["_bases", "_factors", "_gram_pairs",
                                    "_units", "patterns"]


@pytest.mark.parametrize("spec", all_specs(), ids=lambda spec: spec.name)
def test_first_order_pass_builds_no_stack(spec):
    # The factor record is the one first-derivative record: an order-1
    # pass over a stack of lanes returns, and its record keeps, no array
    # with a trailing (q, p, p) shape.
    rng = np.random.default_rng(3)
    theta = np.array([interior_theta(spec, rng) for _ in range(3)])
    shapes = [value.shape for x in spec.forward(theta, 1)
              for value in [x, *getattr(x, "__dict__", {}).values()]
              if isinstance(value, np.ndarray)]
    assert len(shapes) == 2
    assert all(shape[-3:] != (spec.q, spec.p, spec.p) for shape in shapes)


NUMBER_KINDS = {"numbers.Integral", "numbers.Real"}


def number_kind_uses(source: str) -> list[int]:
    """Lines that import ``numbers`` or read ``numbers.Integral`` or
    ``numbers.Real``: a number rule written outside ``_doc``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(a.name == "numbers" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "numbers"
        else:
            hit = isinstance(node, ast.Attribute) and _dotted(node) in NUMBER_KINDS
        if hit:
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "_doc.py"), ids=lambda p: p.name)
def test_number_rules_only_in_doc(path):
    # _doc.number, _doc.integer and _doc.is_number are the package's
    # number rules; a module that needs one calls them.
    assert number_kind_uses(path.read_text()) == []


def test_number_scan_catches_rules():
    source = ("import math\nimport numbers\n\n"
              "ok = _doc.is_number(self.index, numbers.Integral)\n"
              "from numbers import Real\nx = isinstance(v, numbers.Real)\n"
              "y = numbers.Complex, self.numbers.Integral\n")
    assert number_kind_uses(source) == [2, 4, 5, 6]


INTEGER_RULES = {"floor", "is_integer", "Integral"}


def integer_rules(source: str) -> list[int]:
    """Lines that read or import ``floor``, ``is_integer`` or ``Integral``:
    a number found to be an integer by a rule written outside ``_doc``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hit = any(a.name in INTEGER_RULES for a in node.names)
        else:
            hit = (getattr(node, "attr", None) in INTEGER_RULES
                   or isinstance(node, ast.Name) and node.id in INTEGER_RULES)
        if hit:
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "_doc.py"), ids=lambda p: p.name)
def test_integer_rule_only_in_doc(path):
    # _doc.integer decides what is an integer: every count, size, seed and
    # grid size n, fit_lanes' too, is read through it.
    assert integer_rules(path.read_text()) == []


def test_integer_scan_catches_rules():
    source = "\n".join([
        # fit_lanes' own grid-size rule, before _doc.integer read each n
        "if not np.all(np.isfinite(n) & (n >= 1) & (n == np.floor(n))):",  # 1
        "    raise ValueError(n)",                                          # 2
        "ok = float(value).is_integer()",                                   # 3
        "from math import floor, ceil",                                     # 4
        "ok = isinstance(value, Integral)",                                 # 5
        "m = math.floor(x) + np.floor_divide(a, b) + a // b",               # 6
        "rows = np.ceil(x) + np.trunc(x)",                                  # 7
    ])
    assert integer_rules(source) == [1, 3, 4, 5, 6]


def p_comparisons(source: str) -> list[int]:
    """Lines of the comparisons that read an attribute ``p``: a shape
    checked against a spec's observed dimension by hand."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(sub, ast.Attribute) and sub.attr == "p"
                          for sub in ast.walk(node)))


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "semspec.py"), ids=lambda p: p.name)
def test_shape_rule_only_in_semspec(path):
    # SemSpec.check_covariation is the one check that a covariance a spec
    # meets (a Q, a Q stack or sigma0) is (p, p); check_grid the one of n.
    assert p_comparisons(path.read_text()) == []


def test_shape_scan_catches_comparisons():
    source = "\n".join([
        # the hand-written checks that SemSpec.check_covariation replaced
        "if quadvar.q_xx.shape != (spec.p, spec.p):",                 # 1
        "    raise ValueError(quadvar.q_xx.shape)",                   # 2
        "if np.shape(sigma0) != (spec.p, spec.p):",                   # 3
        "    raise ValueError(np.shape(sigma0))",                     # 4
        "if (q_xx.shape[1:] != (spec.p, spec.p) or n.shape != "
        "q_xx.shape[:1]",                                             # 5
        "        or len(start_sets) != len(q_xx)):",                  # 6
        "    raise ValueError(q_xx.shape)",                           # 7
        "if spec.p != p:",                                            # 8
        "    raise ValueError(spec.p)",                               # 9
        "ok = n < self.p and spec.p1 == spec.k1",                     # 10
        "ok = spec.p1 != p and q.shape == (2, 2)",                    # 11
        "size = (spec.p, spec.p)",                                    # 12
    ])
    assert p_comparisons(source) == [1, 3, 5, 8, 10]


CRITERION_NAME = re.compile(r"\b(?:%s)\b" % "|".join(infocrit.CRITERIA))


def criteria_lists(source: str) -> list[int]:
    """Lines of the literals that name more than one criterion: a string
    that names two or more, or a tuple, list or set literal that holds two
    or more criterion names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = CRITERION_NAME.findall(node.value)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            names = [e.value for e in node.elts if isinstance(e, ast.Constant)
                     and e.value in infocrit.CRITERIA]
        else:
            continue
        if len(set(names)) > 1:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "infocrit.py"),
    ids=lambda p: p.name)
def test_criteria_named_only_in_infocrit(path):
    # infocrit.CRITERIA is the criterion set; the tables and records that
    # list the criteria take it from there.
    assert criteria_lists(path.read_text()) == []


def test_criteria_scan_catches_lists():
    source = ('"""Selects by qbic1."""\nHEADER = "h_at_hat,qbic1,qbic2"\n'
              'COLUMNS = ("n", "qbic2", "qaic")\nx = ["qbic1", "qaic"]\n'
              'y = {"qbic1", "qbic2"}\nz = ("qbic1", "n", "qbic1")\n')
    assert criteria_lists(source) == [2, 3, 4, 5]


def test_gate_is_infocrit_alone():
    # The event J and Gamma_tilde are computed from the Hessian in
    # infocrit; qmle only measures the Hessian.
    assert re.findall(r"j_flag|gamma_tilde|JGATE",
                      (SRC / "qmle.py").read_text()) == []


HAND_HORIZON = re.compile(r"isfinite\((?:self\.)?T\)|\bT\s*>\s*0\b")


def horizon_checks(source: str) -> list[int]:
    """Lines that check a horizon T by hand: ``isfinite(T)`` or ``T > 0``."""
    return [number for number, line in enumerate(source.splitlines(), 1)
            if HAND_HORIZON.search(line)]


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "_doc.py"), ids=lambda p: p.name)
def test_horizon_read_only_in_doc(path):
    # _doc.horizon is the package's one horizon rule.
    assert horizon_checks(path.read_text()) == []


def test_horizon_scan_catches_comparisons():
    source = ("if not (np.isfinite(T) and T > 0):\n    pass\n"
              "ok = math.isfinite(self.T)\nok = self.T>0\n"
              "x = a.T @ b\nTt > 0\n")
    assert horizon_checks(source) == [1, 3, 4]


# The argument that carries the order, by position, of each kernel call.
ORDER_POSITIONS = {"forward": 1, "score_lanes": 4}


def order2_requests(source: str) -> list[int]:
    """Lines that ask for an order-2 pass: a call with ``order=2``, or a
    call of ``forward`` or ``score_lanes`` with 2 in the order's place."""
    def two(node) -> bool:
        return isinstance(node, ast.Constant) and node.value == 2

    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        at = ORDER_POSITIONS.get(name, len(node.args))
        if (any(kw.arg == "order" and two(kw.value) for kw in node.keywords)
                or (at < len(node.args) and two(node.args[at]))):
            found.add(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(
    p for p in SRC.glob("*.py") if p.name != "qlik.py"), ids=lambda p: p.name)
def test_observed_hessian_owned_by_qlik(path):
    # The observed Hessian is qlik's: its kernel passes keep the forward
    # pass's second-order terms, and a fit reads each report's Hessian
    # from its last accepted pass, with no Hessian pass of its own.
    source = path.read_text()
    assert order2_requests(source) == []
    if path.name == "qmle.py":
        assert re.findall(r"\b_hessians\b|\b_HESSIAN_LANES\b", source) == []


def test_order_scan_catches_requests():
    source = ("s = spec.forward(theta, 2)\nt = self.forward(theta, order=2)\n"
              "u = score_lanes(spec, theta, q, n, 2)\n"
              "v = qlik.score_lanes(spec, theta, q,\n    n, order=2)\n"
              "w = spec.forward(theta, 1)\nx = score_lanes(spec, theta, q, 2)\n"
              "y = f(2, 2)\nz = spec.forward(theta, 2 * order)\n")
    assert order2_requests(source) == [1, 2, 3, 4]


def names_of(source: str, name: str) -> list[int]:
    """The lines of a module that name ``name``: as a name read or bound,
    an attribute or an import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.ImportFrom)
                and name in {a.name for a in node.names}):
            found.add(node.lineno)
    return sorted(found)


def test_chunk_fits_arrays():
    # A chunk holds one Q stack and one n vector, and fit_lanes takes
    # them; hfsem fit hands fit_multistart its QuadVar.  LikelihoodSurface
    # is the one-lane library type: no module but qlik and qmle names it,
    # besides the package's __init__, which exports it.
    owners = ("__init__.py", "qlik.py", "qmle.py")
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if path.name not in owners
            and names_of(path.read_text(), "LikelihoodSurface")] == []
    assert list(inspect.signature(qmle.fit_lanes).parameters) == [
        "spec", "q_xx", "n", "start_sets"]
    assert list(inspect.signature(qmle.fit_multistart).parameters) == [
        "spec", "quadvar", "starts", "seed", "init"]
    assert list(inspect.signature(qmle.start_set).parameters) == [
        "spec", "q_xx", "starts", "seed", "init"]


def test_surface_scan_catches_names():
    # The chunk stage of harness.py as it was while fit_lanes took surfaces.
    source = ("from .qlik import LikelihoodSurface, quad_var\n"
              "def _fit_chunk(spec, init, qvs, chunk):\n"
              "    surfaces = [LikelihoodSurface(spec, qv) for qv in qvs]\n"
              "    return fit_lanes(surfaces, start_sets)\n"
              "kind = qlik.LikelihoodSurface\n"
              "surface = 'LikelihoodSurface'  # a string is no name\n")
    assert names_of(source, "LikelihoodSurface") == [1, 3, 5]
    # hfsem fit in cli.py as it was while fit_multistart took a surface.
    source = ("from .qlik import LikelihoodSurface, quad_var\n"
              "def fit_command(spec, quadvar, starts, seed, init):\n"
              "    surface = LikelihoodSurface(spec, quadvar)\n"
              "    return fit_multistart(surface, starts=starts, seed=seed, "
              "init=init)\n")
    assert names_of(source, "LikelihoodSurface") == [1, 3]


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


def test_perfbench_desk_verify_reads_records(monkeypatch):
    # The desk workloads read run_experiment's records by key and count
    # rec["converged"] is True, so a numpy scalar in a row would make
    # converged_share read 0 with every check still passing.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    desk, clock = workloads.WORKLOADS["desk_true"], workloads.EntryClock()
    with clock.installed():
        out = desk.fixed(1, clock)
    desk.verify(out)
    assert [name for name, ok, _ in out.checks if not ok] == []
    assert out.fits == 3 * out.reps > 0
    assert out.converged == out.fits


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
        "starts", "true_model", "init_mode", "workers"]


def test_table1_options():
    # The config sets the study.  Besides the config and the output
    # folder, the command line takes only the worker count, which changes
    # how the study runs but not what it writes.
    assert [param.opts for param in table1.params] == [
        ["--config"], ["--out-dir"], ["--workers"]]


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


def bare_opens(source: str) -> list[int]:
    """Lines of the calls to the builtin ``open`` that are not a ``with``
    item, and so leave the file to be closed when it is collected."""
    tree = ast.parse(source)
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, ast.With) for item in node.items}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name) and node.func.id == "open"
                  and id(node) not in managed)


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"),
                                         *(ROOT / "tests").glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_open_is_a_with_item(path):
    assert bare_opens(path.read_text()) == []


def test_open_scan_catches_unclosed_files():
    source = "\n".join([
        # test_harness.py's TestRendering.test_write_outputs as it was
        "def test_write_outputs(self, small_run, tmp_path):",             # 1
        "    _, (table, records) = small_run",                            # 2
        "    paths = harness.write_outputs(table, records, tmp_path / "
        "'out')",                                                         # 3
        "    lines = open(paths['replications_csv']).read().splitlines()",  # 4
        "with open(path) as fh, open(other, 'w') as out:",                # 5
        "    doc = json.load(fh)",                                        # 6
        "doc = json.load(open(path))",                                    # 7
        "text = path.open().read() + gzip.open(path).read()",             # 8
        "fh = open(path, 'w')",                                           # 9
    ])
    assert bare_opens(source) == [4, 7, 9]


@pytest.mark.parametrize("path", sorted((SRC / "truth_files").glob("*.json")),
                         ids=lambda p: p.name)
def test_truth_files_load(path):
    # A bundled truth is read by its stem, is a valid config's true_model,
    # and implies a positive-definite covariance.
    diffsim.load_truth(path.stem)
    harness.ExperimentConfig(n_values=[100], T=1.0, replications=1,
                             master_seed=0, model_spec_paths=["model1"],
                             true_model=path.stem)
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
