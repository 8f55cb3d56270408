"""The scripts under scripts/ and README's Python example run against the
current API."""

import importlib.util
import re
from pathlib import Path

from tuneseer import cli

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

TINY_FLAGS = [
    "--dims", "2", "--instances", "1", "--train-seeds", "0,", "--n-param-sets", "2",
    "--seeds", "2", "--budget", "1600", "--sigma", "50", "--kappa", "3", "--workers", "1",
]


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_desk_campaign_writes_what_the_cli_steps_write(tmp_path):
    desk = tmp_path / "desk"
    assert load("run_desk_campaign").main([*TINY_FLAGS, "--out", str(desk)]) == 0

    direct = tmp_path / "direct"
    common = [*TINY_FLAGS, "--out", str(direct)]
    assert cli.main(["train", *common]) == 0
    assert cli.main(["compare", "--suite", "holdout", *common]) == 0
    features = ["--seeds", "0,", "--sigma", "10,100,1000"]
    assert cli.main(["features", "--suite", "training", *common, *features]) == 0

    written = sorted(p.relative_to(desk).as_posix() for p in desk.rglob("*"))
    assert {"alpha.csv", "features.csv", "store.jsonl", "wilcoxon.csv"} <= set(written)
    assert load("same_bytes").differing_files(direct, desk) == []


def test_desk_campaign_ends_with_a_failed_steps_exit_code(tmp_path, capsys):
    flags = [*TINY_FLAGS, "--budget", "40", "--out", str(tmp_path / "desk")]
    assert load("run_desk_campaign").main(flags) == 1
    assert "error: budget 40" in capsys.readouterr().err
    assert not (tmp_path / "desk" / "alpha.csv").exists()



def test_readme_python_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    exec(compile(example, "README.md", "exec"), {})
    best, alpha = map(float, capsys.readouterr().out.split())
    assert 0.0 < best and alpha > 0.0
