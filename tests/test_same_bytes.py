import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "same_bytes.py"
LITERATURE = "ControlParams(0.9, 0.5, 10 * dim)"
REPORT_MEAN = "mean_alpha={np.mean(vals):.6g}"


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


def changed_harness(tmp_path, old, new):
    """A copy of src/ with ``old`` in harness.py replaced by ``new``."""
    base = tmp_path / "src"
    shutil.copytree(ROOT / "src", base, ignore=shutil.ignore_patterns("__pycache__"))
    harness = base / "tuneseer" / "harness.py"
    text = harness.read_text()
    assert old in text
    harness.write_text(text.replace(old, new))
    return base


def test_changed_literature_crossover_is_named(tmp_path):
    base = changed_harness(tmp_path, LITERATURE, "ControlParams(0.8, 0.5, 10 * dim)")
    done = same_bytes(base)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "differs: compare-per-run/alpha.csv" in done.stdout.splitlines()


def test_changed_report_stdout_is_named(tmp_path):
    # report writes the same wilcoxon.csv; only its printed means differ
    base = changed_harness(tmp_path, REPORT_MEAN, "mean_alpha={np.mean(vals):.3e}")
    done = same_bytes(base)
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert "differs: stdout/report-per-run.txt" in lines
    assert "differs: stdout/report-per-batch.txt" in lines
    assert not any("alpha.csv" in line or "wilcoxon.csv" in line for line in lines)
