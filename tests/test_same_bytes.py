import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_bytes.py"
LITERATURE = "ControlParams(0.9, 0.5, 10 * dim)"
REPORT_MEAN = "mean_alpha={np.mean(vals):.6g}"
STORE_LINE = "json.dumps(dict(zip(STORE_FIELDS, values, strict=True)))"


def same_bytes(base_src):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(base_src), "--scale", "tiny", "--workers", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_same_sources_write_same_bytes():
    done = same_bytes(ROOT / "src")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("same bytes: ")


def changed_module(tmp_path, module, old, new):
    """A copy of src/ with ``old`` in tuneseer/``module`` replaced by ``new``."""
    base = tmp_path / "src"
    shutil.copytree(ROOT / "src", base, ignore=shutil.ignore_patterns("__pycache__"))
    path = base / "tuneseer" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return base


def test_changed_literature_crossover_is_named(tmp_path):
    base = changed_module(tmp_path, "harness.py", LITERATURE, "ControlParams(0.8, 0.5, 10 * dim)")
    done = same_bytes(base)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "differs: compare-per-run/alpha.csv" in done.stdout.splitlines()


def test_changed_report_stdout_is_named(tmp_path):
    # report writes the same wilcoxon.csv; only its printed means differ
    base = changed_module(tmp_path, "harness.py", REPORT_MEAN, "mean_alpha={np.mean(vals):.3e}")
    done = same_bytes(base)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert "differs: stdout/report-per-run.txt" in lines
    assert "differs: stdout/report-per-batch.txt" in lines
    assert not any("alpha.csv" in line or "wilcoxon.csv" in line for line in lines)


def test_changed_store_field_order_is_named(tmp_path):
    # the same records with their fields written in reverse order
    reversed_line = "json.dumps(dict(reversed(list(zip(STORE_FIELDS, values, strict=True)))))"
    base = changed_module(tmp_path, "predictor.py", STORE_LINE, reversed_line)
    done = same_bytes(base)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert "differs (timestamps dropped): train/store.jsonl" in lines
    assert "differs (timestamps dropped): compare-per-run/store_after_compare.jsonl" in lines
    assert "differs (timestamps dropped): compare-per-batch/store_after_compare.jsonl" in lines
