"""Every name perfbench reaches still exists in the package.

perfbench/run.py --trace 1 patches each ``TARGETS`` row of perfbench/spans.py,
and perfbench/run.py imports names from tuneseer and reads the records of a
loaded store; a renamed or deleted name would only show there.  This loads
spans.py as it is and resolves each row against ``src/``, resolves each
``from tuneseer... import ...`` line of run.py, and reads a loaded record as
run.py does.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from tuneseer.features import FeatureVector
from tuneseer.predictor import RunKey, TrainingRecord, TrainingStore
from tuneseer.sampling import ControlParams

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


def _run_py_imports():
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    names = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "tuneseer"
        for alias in node.names
    ]
    return list(dict.fromkeys(names))  # once each, in order


@pytest.mark.parametrize("module,name", _run_py_imports(), ids=lambda v: v)
def test_run_py_import_resolves(module, name):
    owner = importlib.import_module(module)
    assert Path(owner.__file__).is_relative_to(ROOT / "src")
    if not hasattr(owner, name):  # from a package, a submodule
        importlib.import_module(f"{module}.{name}")


def test_loaded_store_has_what_run_py_reads(tmp_path):
    # run.py counts TrainingStore.load(path).records and reads each record's
    # alpha and params.p3
    record = TrainingRecord(
        ControlParams(0.5, 0.5, 20), FeatureVector(2.0, 1.0, 0.0), 1.5,
        RunKey("sphere", 2, 1, 0), 50, "2026-01-01T00:00:00+00:00",
    )
    TrainingStore([record]).save(tmp_path / "store.jsonl")
    (loaded,) = TrainingStore.load(tmp_path / "store.jsonl").records
    assert (loaded.alpha, loaded.params.p3) == (1.5, 20)
