"""Every name the perfbench tracer wraps still exists in the package.

perfbench/run.py --trace 1 patches each ``TARGETS`` row of perfbench/spans.py;
a renamed or deleted name would only show there.  This loads spans.py as it
is and resolves each row against ``src/``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _targets():
    spans_py = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", spans_py)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, path) for _, module, path, _ in spans.TARGETS]


@pytest.mark.parametrize("module,path", _targets(), ids=lambda v: v)
def test_tracer_target_resolves(module, path):
    owner = importlib.import_module(module)
    assert Path(owner.__file__).is_relative_to(ROOT / "src")
    *classes, name = path.split(".")
    for cls in classes:
        owner = vars(owner)[cls]
    assert name in vars(owner)
