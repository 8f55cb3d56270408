"""No module under src/ imports a name it never uses."""

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
