#!/usr/bin/env python3
"""Check that this checkout's tuneseer writes the same bytes as another
source tree.

Runs `train`, `compare` in both retrain modes and once more per batch with
`--paper-instances`, `features` with and without `--no-feature-scaling`,
`report` on the two default compare directories, and `recommend` with
`--beta` (with and without `--no-feature-scaling`) and with
`--function/--dim` through `python -m tuneseer.cli`, once with
PYTHONPATH=BASE_SRC and once with this checkout's src/, each side in its
own temporary directory.  Each step's stdout is kept as
stdout/<step>.txt.  Then compares every file byte for byte: alpha.csv,
wilcoxon.csv, suite.json, features.csv, the set and contents of curves/*
and the stdout files.  The stores (*.jsonl) are compared record by record,
field order included, with the `timestamp` field dropped.  Prints one line
per differing file and exits 1 if any differs, 0 if none does, and 2 if a
command fails.

    git archive <rev> src | tar -x -C /tmp/base
    python scripts/same_bytes.py /tmp/base/src --scale tiny

`--scale acceptance` (the default) is the criterion-10 campaign of
tests/test_acceptance.py: 900 training runs and 540 held-out keys.  `tiny`
finishes in seconds and runs two instances per function, so every curve
file holds more than one instance of a method.  Nothing in the checkout is
written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THIS_SRC = Path(__file__).resolve().parents[1] / "src"

SCALES = {
    # criterion 10: training suite once per key, 30 held-out seeds
    "acceptance": dict(
        dims="2,10,20", instances="1", train_seeds="0,", n_param_sets="30", seeds="30",
        budget="10000", sigma="1000", kappa="10",
        methods="predictive,best-of-training,literature",
        feature_sigmas="10,100,1000",
    ),
    # two instances, so the order of instances within a method is compared
    "tiny": dict(
        dims="2", instances="2", train_seeds="0,", n_param_sets="2", seeds="2",
        budget="1600", sigma="50", kappa="3",
        methods="predictive,best-of-training,shade,literature",
        feature_sigmas="20,50",
    ),
}


def commands(scale: dict, workers: int) -> list:
    """(step name, cli argv) per step, in run order; every later step reads
    the store the train step writes, and each report step reads the
    directory of the compare step it names."""
    store = os.path.join("train", "store.jsonl")
    common = [
        "--dims", scale["dims"], "--instances", scale["instances"], "--budget", scale["budget"],
        "--kappa", scale["kappa"], "--workers", str(workers),
    ]
    compare = [
        "compare", "--suite", "holdout", "--seeds", scale["seeds"],
        "--sigma", scale["sigma"], "--methods", scale["methods"],
        "--store", store, *common,
    ]
    recommend = ["recommend", "--store", store, "--kappa", scale["kappa"]]
    return [
        ("train", [
            "train", "--suite", "training", "--train-seeds", scale["train_seeds"],
            "--n-param-sets", scale["n_param_sets"], "--sigma", scale["sigma"],
            *common, "--out", "train",
        ]),
        *(
            (f"compare-{mode}", [*compare, "--retrain", mode, "--out", f"compare-{mode}"])
            for mode in ("per-run", "per-batch")
        ),
        ("compare-paper-instances", [
            *compare, "--retrain", "per-batch", "--paper-instances",
            "--out", "compare-paper-instances",
        ]),
        *(
            (step, [
                "features", "--suite", "training", "--seeds", "0,",
                "--sigma", scale["feature_sigmas"], *common, *flags, "--out", step,
            ])
            for step, flags in (("features", []), ("features-unscaled", ["--no-feature-scaling"]))
        ),
        *(
            (f"report-{mode}", ["report", "--out", f"compare-{mode}"])
            for mode in ("per-run", "per-batch")
        ),
        ("recommend-beta", [*recommend, "--beta", "10,1.3,0.2"]),
        ("recommend-beta-unscaled", [*recommend, "--beta", "10,1.3,0.2", "--no-feature-scaling"]),
        ("recommend-function", [
            *recommend, "--function", "rastrigin", "--dim", scale["dims"].split(",")[0],
            "--sigma", scale["sigma"], "--seed", "1",
        ]),
    ]


def run_side(src: Path, workdir: Path, steps: list) -> None:
    """Run every step in ``workdir``, keeping its stdout as
    stdout/<step>.txt there."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    (workdir / "stdout").mkdir()
    for step, argv in steps:
        cmd = [sys.executable, "-m", "tuneseer.cli", *argv]
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            print(
                f"{src}: `tuneseer {' '.join(argv)}` exited {done.returncode}\n"
                f"{done.stderr}",
                file=sys.stderr,
            )
            raise SystemExit(2)
        (workdir / "stdout" / f"{step}.txt").write_text(done.stdout, encoding="utf-8")


def _records(path: Path) -> list:
    """Each record as its (field, value) pairs in written order, the
    timestamp dropped."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            record.pop("timestamp", None)
            out.append(list(record.items()))
    return out


def differing_files(base: Path, this: Path) -> list:
    """One line per file that is missing on a side or differs."""
    files = {
        p.relative_to(root).as_posix()
        for root in (base, this)
        for p in root.rglob("*")
        if p.is_file()
    }
    lines = []
    for rel in sorted(files):
        a, b = base / rel, this / rel
        if not a.exists():
            lines.append(f"only in this checkout: {rel}")
        elif not b.exists():
            lines.append(f"only in base: {rel}")
        elif rel.endswith(".jsonl"):
            if _records(a) != _records(b):
                lines.append(f"differs (timestamps dropped): {rel}")
        elif a.read_bytes() != b.read_bytes():
            lines.append(f"differs: {rel}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("base_src", type=Path, help="src/ directory of the base tree")
    parser.add_argument("--scale", choices=sorted(SCALES), default="acceptance")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    if not (args.base_src / "tuneseer" / "__init__.py").is_file():
        parser.error(f"{args.base_src} holds no tuneseer package")

    steps = commands(SCALES[args.scale], args.workers)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        base, this = Path(tmp, "base"), Path(tmp, "this")
        for src, workdir in ((args.base_src.resolve(), base), (THIS_SRC, this)):
            workdir.mkdir()
            run_side(src, workdir, steps)
        lines = differing_files(base, this)
        n_files = sum(1 for p in this.rglob("*") if p.is_file())
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"same bytes: {n_files} files identical at scale {args.scale}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
