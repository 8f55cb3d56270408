"""No module under src/ imports a name it never uses, or a private name of
another module; one function opens every process pool, and one reads the
objective value floor."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tuneseer"


def unused_imports(source: str) -> list:
    """``"<line>: <name>"`` for every name an import binds that no other
    line of ``source`` reads; ``from __future__`` imports are not names."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(bound.items()) if name not in read]


@pytest.mark.parametrize(
    "source,unused",
    [
        ("from __future__ import annotations\nimport os\nos.getpid()\n", []),
        ("import os, sys\nsys.exit()\n", ["1: os"]),
        ("import concurrent.futures\nconcurrent.futures.wait(())\n", []),
        ("import numpy as np\nimport numpy\nnp.zeros(1)\n", ["2: numpy"]),
        ("from .cluster import ClusterModel, fit\ndef f() -> int:\n    return fit()\n",
         ["1: ClusterModel"]),
        ("from typing import Optional\nx: Optional[int] = None\n", []),
    ],
)
def test_unused_imports_finds_names_never_read(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_names_of_siblings(source: str) -> list:
    """``"<line>: <name>"`` for every ``_``-prefixed name ``source`` imports
    from a sibling module (``from .de import _x``) or reads as an attribute
    of one (``predictor._x``).  A value's attribute, such as a namedtuple's
    ``key._asdict()`` or ``RunKey._fields``, is not a module's name, and
    dunders are not private."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:  # `from . import predictor` binds a module
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"{line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "source,private",
    [
        ("from . import predictor\npredictor._featured_run()\n", ["2: predictor._featured_run"]),
        ("from . import predictor as p\np._x\np.run\n", ["2: p._x"]),
        ("from .cluster import _assign, fit\n", ["1: _assign"]),
        ("from .predictor import RunKey\nRunKey._fields\nkey = RunKey()\nkey._asdict()\n", []),
        ("from . import cluster\ncluster.__name__\n", []),
        ("import os\nos._exit(0)\n", []),
    ],
)
def test_private_names_of_siblings_finds_cross_module_reads(source, private):
    assert private_names_of_siblings(source) == private


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_a_private_name_of_another(path):
    assert private_names_of_siblings(path.read_text(encoding="utf-8")) == []


def read_sites(source: str, name: str) -> list:
    """``"<line>: <scope>"`` for every read of ``name`` in ``source``, as an
    attribute (``concurrent.futures.ProcessPoolExecutor``), a name or an
    imported name, with the classes and functions around it joined by dots
    (``<module>`` outside any).  Assigning the name is not a read."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif (
                (isinstance(child, ast.Attribute) and child.attr == name)
                or (
                    isinstance(child, ast.Name)
                    and child.id == name
                    and isinstance(child.ctx, ast.Load)
                )
                or (
                    isinstance(child, ast.ImportFrom)
                    and any(alias.name == name for alias in child.names)
                )
            ):
                found.append((child.lineno, ".".join(scope) or "<module>"))
            visit(child, inner)

    visit(ast.parse(source), ())
    return [f"{line}: {where}" for line, where in sorted(found)]


def package_read_sites(name: str) -> list:
    """``<module>.<scope>`` for every read of ``name`` under src/."""
    return [
        f"{path.stem}.{site.split(': ')[1]}"
        for path in sorted(PACKAGE.glob("*.py"))
        for site in read_sites(path.read_text(encoding="utf-8"), name)
    ]


@pytest.mark.parametrize(
    "source,sites",
    [
        ("import concurrent.futures\ndef f():\n    concurrent.futures.ProcessPoolExecutor(2)\n",
         ["3: f"]),
        ("from concurrent.futures import ProcessPoolExecutor as P\nP(2)\n", ["1: <module>"]),
        ("import concurrent.futures as cf\nclass A:\n    def g(self):\n"
         "        def h():\n            cf.ProcessPoolExecutor()\n", ["5: A.g.h"]),
        ("import concurrent.futures\nconcurrent.futures.ThreadPoolExecutor(2)\n", []),
    ],
)
def test_process_pool_sites_finds_every_read(source, sites):
    assert read_sites(source, "ProcessPoolExecutor") == sites


def test_only_pool_map_opens_a_process_pool():
    # pool_map sizes a pool by its items, so every pool must be its
    assert package_read_sites("ProcessPoolExecutor") == ["harness.pool_map"]


@pytest.mark.parametrize(
    "source,sites",
    [
        ("VALUE_FLOOR = 1e-300\nclass O:\n    def e(self, v):\n"
         "        return v + VALUE_FLOOR\n", ["4: O.e"]),
        ("from .bench import VALUE_FLOOR\n", ["1: <module>"]),
        ("from . import bench\ndef f():\n    return bench.VALUE_FLOOR\n", ["3: f"]),
        ("VALUE_FLOOR = 1e-300\n", []),
    ],
)
def test_value_floor_sites_finds_every_read(source, sites):
    assert read_sites(source, "VALUE_FLOOR") == sites


def test_only_evaluate_batch_reads_the_value_floor():
    # one floor for every objective value: no suite or score gets its own
    assert package_read_sites("VALUE_FLOOR") == ["bench.ObjectiveInstance.evaluate_batch"]
