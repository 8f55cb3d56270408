"""Campaign benchmark for tuneseer.

Runs one campaign workload through the public entry points
``tuneseer.harness.cmd_train`` / ``cmd_compare``, checks its outputs and
prints its metrics; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, both modes

``--trace 0`` reports the end-to-end metrics of untraced calls; ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics of the
traced ones.  Workloads, metrics and the layer-to-end-to-end mapping are
described in perfbench/README.md.

Every call runs serially (``workers=1``) in this one process with the BLAS
thread pools pinned to one thread, so traced and untraced calls run the same
program.  The compare workloads start from a full-size training store built
once per checkout under ``.bench_build/perfbench`` (the benchmark's build
step) from the sources in ``src/``.
"""

import os

# Pinned before numpy can be imported by anything below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

LOADAVG_AT_START = os.getloadavg()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

# The acceptance-campaign shape shared by every workload.
DIMS = (2, 10, 20)
WORKERS = 1
SHAPE = dict(dims=DIMS, instances=1, budget=10_000, sigma=1000, kappa=10, workers=WORKERS)
N_SPECS = 10 * len(DIMS)  # training suite: 10 functions
N_HOLDOUT_SPECS = 6 * len(DIMS)  # held-out suite: 6 functions

# Full-size training store the compare workloads start from: 30 LHS triples
# per (function, D), one instance, one seed = 900 records.  Its campaign seed
# is fixed so the store is built once per checkout.
STORE_SEED = 0
STORE_PARAM_SETS = 30
STORE_RECORDS = N_SPECS * STORE_PARAM_SETS

# Per-call sizes.  A run makes about ``seconds / call_s`` calls, call j with
# campaign seed ``SEED_STRIDE * seed + j``, and reports medians over them, so
# each figure averages over several campaign seeds as well as over timing
# noise.
TRAIN_PARAM_SETS = 4
PREDICT_SEEDS = 1
BATCH_SEEDS = 1
SEED_STRIDE = 1000
BATCH_METHODS = ("predictive", "best-of-training", "shade", "literature")

# Seed reserved for checking a later performance claim on inputs not used
# while the change was written.
HELDOUT_SEED = 9973

SETUP_REPS = 3
IMPORT_PROBE = "import tuneseer.harness"


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_tuneseer():
    if not (SRC / "tuneseer" / "__init__.py").is_file():
        _fail(f"no tuneseer sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tuneseer.harness  # noqa: F401


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _store_config(out: str):
    from tuneseer.harness import CampaignConfig

    return CampaignConfig(
        suite="training",
        train_seeds=(0,),
        n_param_sets=STORE_PARAM_SETS,
        campaign_seed=STORE_SEED,
        out=out,
        **SHAPE,
    )


def store_cache_path() -> Path:
    """Cache path keyed by the sources and the store's configuration."""
    h = hashlib.sha256(repr(_store_config("")).encode())
    for path in sorted((SRC / "tuneseer").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return BUILD / f"store-{h.hexdigest()[:16]}.jsonl"


def build_store(path: Path) -> None:
    """Build the full-size training store with cmd_train (build step)."""
    from tuneseer.harness import cmd_train

    tmp = path.parent / f"build-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    with contextlib.redirect_stdout(sys.stderr):
        cmd_train(_store_config(str(tmp)))
    os.replace(tmp / "store.jsonl", path)
    shutil.rmtree(tmp)


def ensure_store() -> Path:
    path = store_cache_path()
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--build-store", str(path)],
            env=_child_env(),
            check=True,
            timeout=850,
        )
        print(f"built training store {path.name} in {time.perf_counter() - t0:.1f} s")
    return path


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict  # CampaignConfig fields on top of SHAPE
    runs: int  # runs attempted per call
    feature_runs: int  # runs that extract features
    fits: int  # k-means fits per call
    call_s: float  # nominal seconds per call (2-vCPU x86-64 VM, Python 3.11)

    @property
    def is_train(self) -> bool:
        return self.name == "train"

    @property
    def root_span(self) -> str:
        return "harness.cmd_train" if self.is_train else "harness.cmd_compare"

    def config(self, seed: int, out: str, store: str):
        from tuneseer.harness import CampaignConfig

        return CampaignConfig(
            campaign_seed=seed,
            out=out,
            store_path=None if self.is_train else store,
            **SHAPE,
            **self.overrides,
        )

    def entry_point(self):
        from tuneseer import harness

        return harness.cmd_train if self.is_train else harness.cmd_compare


_TRAIN_RUNS = N_SPECS * TRAIN_PARAM_SETS
_PREDICT_KEYS = N_HOLDOUT_SPECS * PREDICT_SEEDS
_BATCH_KEYS = N_HOLDOUT_SPECS * BATCH_SEEDS
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "train",
            dict(suite="training", train_seeds=(0,), n_param_sets=TRAIN_PARAM_SETS),
            runs=_TRAIN_RUNS,
            feature_runs=_TRAIN_RUNS,
            fits=0,
            call_s=4.5,
        ),
        Workload(
            "predict-per-run",
            dict(
                suite="holdout",
                seeds=tuple(range(PREDICT_SEEDS)),
                methods=("predictive",),
                retrain="per-run",
            ),
            runs=_PREDICT_KEYS,
            feature_runs=_PREDICT_KEYS,
            fits=_PREDICT_KEYS + 1,
            call_s=3.0,
        ),
        Workload(
            "compare-batch",
            dict(
                suite="holdout",
                seeds=tuple(range(BATCH_SEEDS)),
                methods=BATCH_METHODS,
                retrain="per-batch",
            ),
            runs=_BATCH_KEYS * len(BATCH_METHODS),
            feature_runs=_BATCH_KEYS,
            fits=1,
            call_s=6.0,
        ),
    )
}


def call_seeds(seed: int, seconds: float, per_call: float) -> list:
    """Campaign seeds of the calls a run makes; at least one."""
    return [SEED_STRIDE * seed + j for j in range(max(1, round(seconds / per_call)))]


def prepare_inputs(wl: Workload, workdir: Path, cached_store: Path) -> Path:
    """Write the generated inputs the program gets: the compare workloads'
    starting store (checked to hold the full-size record set)."""
    from tuneseer.predictor import TrainingStore

    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    store = inputs / "store.jsonl"
    if not wl.is_train:
        shutil.copyfile(cached_store, store)
        n = len(TrainingStore.load(store))
        if n != STORE_RECORDS:
            raise RuntimeError(f"starting store holds {n} records, want {STORE_RECORDS}")
    return store


def measure_setup(wl: Workload, workdir: Path, cached_store: Path):
    """Median over SETUP_REPS of a fresh interpreter importing tuneseer plus
    generating this workload's inputs."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=_child_env(), check=True, timeout=120
        )
        store = prepare_inputs(wl, workdir, cached_store)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), store


# ---------------------------------------------------------------------------
# one campaign call and its output checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class CallResult:
    campaign_seed: int
    wall: float
    attempted: int
    ok: int
    alphas: list
    digest: str
    expected_points: int
    output_bytes: int
    errors: list


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _store_digest(path: Path) -> str:
    """SHA-256 of the store with the wall-clock timestamp field dropped."""
    h = hashlib.sha256()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            raw.pop("timestamp", None)
            h.update(json.dumps(raw).encode())
            h.update(b"\n")
    return h.hexdigest()


def _check_train(wl: Workload, cfg, out: Path) -> tuple:
    from tuneseer.predictor import TrainingStore

    errors = []
    path = out / "store.jsonl"
    records = TrainingStore.load(path).records
    if len(records) != wl.runs:
        errors.append(f"store holds {len(records)} records, want {wl.runs}")
    alphas = [r.alpha for r in records]
    if not all(math.isfinite(a) and a >= 0.0 for a in alphas):
        errors.append("store holds a non-finite or negative alpha")
    optimizer_budget = cfg.budget - cfg.sigma
    points = sum(cfg.sigma + (optimizer_budget // r.params.p3) * r.params.p3 for r in records)
    return len(records), alphas, _store_digest(path), points, errors


def _check_compare(wl: Workload, cfg, out: Path, report) -> tuple:
    from tuneseer.harness import compute_wilcoxon_rows, read_alpha_csv

    errors = []
    rows = report.alpha_rows
    if len(rows) != wl.runs:
        errors.append(f"alpha.csv has {len(rows)} rows, want {wl.runs} (keys x methods)")
    ok_rows = [r for r in rows if r["status"] == "ok"]
    over = [r for r in ok_rows if r["evals"] > cfg.budget]
    if over:
        errors.append(f"{len(over)} rows spend more than the budget {cfg.budget}")
    alpha_path = out / "alpha.csv"
    if compute_wilcoxon_rows(read_alpha_csv(str(alpha_path))) != report.wilcoxon_rows:
        errors.append("Wilcoxon rows re-derived from alpha.csv differ from the report")
    alphas = [r["alpha"] for r in ok_rows if r["method"] == "predictive"]
    points = sum(r["evals"] for r in ok_rows)
    digest = hashlib.sha256(alpha_path.read_bytes()).hexdigest()
    return len(ok_rows), alphas, digest, points, errors


def run_call(wl: Workload, seed: int, out: Path, store: Path, tracer=None) -> CallResult:
    """One timed campaign call, then its output checks (untimed)."""
    from spans import installed

    cfg = wl.config(seed, str(out), str(store))
    fn = wl.entry_point()
    with contextlib.redirect_stdout(sys.stderr):
        t0 = time.perf_counter()
        if tracer is None:
            result = fn(cfg)
        else:
            with installed(tracer):
                result = tracer.call(wl.root_span, fn, (cfg,), {})
        wall = time.perf_counter() - t0
    if wl.is_train:
        ok, alphas, digest, points, errors = _check_train(wl, cfg, out)
    else:
        ok, alphas, digest, points, errors = _check_compare(wl, cfg, out, result)
    if not alphas:
        errors.append("no scored runs to take the median alpha of")
    return CallResult(
        campaign_seed=seed,
        wall=wall,
        attempted=wl.runs,
        ok=ok,
        alphas=alphas,
        digest=digest,
        expected_points=points,
        output_bytes=_dir_bytes(out),
        errors=errors,
    )


def coverage_errors(wl: Workload, layers: dict, call: CallResult) -> list:
    """Wrapped call counts must match what the workload implies; a missed
    binding then fails loudly instead of reading as a faster layer."""
    want = {
        "de.evolve.calls": wl.runs,
        "metric.compute_alpha.calls": wl.runs,
        "features.extract_features.calls": wl.feature_runs,
        "cluster.fit.calls": wl.fits,
        "bench.evaluate_batch.points": call.expected_points,
    }
    return [
        f"coverage: {name} = {layers[name]}, want {value}"
        for name, value in want.items()
        if layers[name] != value
    ]


# ---------------------------------------------------------------------------
# measurement loops
# ---------------------------------------------------------------------------


def end_to_end(wl, seed, seconds, workdir, store, setup_s):
    calls = [
        run_call(wl, s, workdir / f"call-{j}", store)
        for j, s in enumerate(call_seeds(seed, seconds, wl.call_s))
    ]
    wall = statistics.median(c.wall for c in calls)
    attempted = sum(c.attempted for c in calls)
    ok = sum(c.ok for c in calls)
    metrics = {
        "wall_s": (wall, "s"),
        "runs_per_s": (statistics.median(c.ok / c.wall for c in calls), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok / attempted, "frac"),
        "median_alpha": (statistics.median(a for c in calls for a in c.alphas), "score"),
    }
    return calls, metrics, []


def per_layer(wl, seed, seconds, workdir, store):
    from spans import UNITS, Tracer, layer_metrics

    tracer = Tracer()
    layers, errors, pairs = [], [], []
    for j, s in enumerate(call_seeds(seed, seconds, 2 * wl.call_s)):
        first = len(tracer.spans)  # untraced calls add no spans
        # alternate which call of a pair goes first, so neither side always
        # pays the process's first-call costs
        if j % 2:
            traced = run_call(wl, s, workdir / f"traced-{j}", store, tracer)
            plain = run_call(wl, s, workdir / f"plain-{j}", store)
        else:
            plain = run_call(wl, s, workdir / f"plain-{j}", store)
            traced = run_call(wl, s, workdir / f"traced-{j}", store, tracer)
        figures = layer_metrics(tracer.spans[first:], wl.root_span, traced.output_bytes)
        errors.extend(coverage_errors(wl, figures, traced))
        if traced.digest != plain.digest:
            errors.append(f"campaign seed {s}: traced output digest differs from the untraced one")
        layers.append(figures)
        pairs.append((plain, traced))
    tracer.write(str(BUILD / "spans" / f"{wl.name}-seed{seed}.jsonl"))
    metrics = {
        name: (statistics.median(f[name] for f in layers), UNITS[name]) for name in layers[0]
    }
    metrics["trace.wall_s"] = (statistics.median(t.wall for _, t in pairs), UNITS["trace.wall_s"])
    # paired differences: the two calls of a pair run back to back, so slow
    # drift of the host's speed cancels
    overhead = statistics.median(t.wall - p.wall for p, t in pairs)
    metrics["trace.overhead_s"] = (overhead, UNITS["trace.overhead_s"])
    calls = [c for p in pairs for c in p]
    return calls, metrics, errors


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def environment(wl_name: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl_name,
        "seed": seed,
        "trace": trace,
        "heldout_seed": HELDOUT_SEED,
        "store_seed": STORE_SEED,
        "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": LOADAVG_AT_START,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> int:
    _import_tuneseer()
    wl = WORKLOADS[name]
    env = environment(name, seed, trace)
    print("env " + json.dumps(env))
    cached_store = ensure_store()
    workdir = BUILD / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if trace:
            store = prepare_inputs(wl, workdir, cached_store)
            calls, metrics, errors = per_layer(wl, seed, seconds, workdir, store)
        else:
            setup_s, store = measure_setup(wl, workdir, cached_store)
            calls, metrics, errors = end_to_end(wl, seed, seconds, workdir, store, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "store.jsonl without timestamps" if wl.is_train else "alpha.csv"
    for c in calls:
        errors.extend(c.errors)
        print(f"call campaign_seed={c.campaign_seed} wall_s={c.wall:.3f} sha256({kind})={c.digest}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<40} {value!r} {unit}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    result = {
        "correct": not errors,
        "attempted": sum(c.attempted for c in calls),
        "failed": sum(c.attempted - c.ok for c in calls),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    per_call = [{"campaign_seed": c.campaign_seed, "wall_s": c.wall, "sha256": c.digest} for c in calls]
    record = dict(result, env=env, calls=per_call, errors=errors)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced and traced, each in its own process, then one
    table per mode with a column per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    tables = {0: {}, 1: {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode not in (0, 1) or not lines:
                sys.stderr.write(proc.stderr)
                _fail(f"workload {name} exited with {proc.returncode}")
            for line in lines[:-1]:
                if line.startswith(("call ", "CHECK FAILED")):
                    print(f"{name} (trace {trace}): {line}")
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                tables[trace].setdefault(metric, {})[name] = value
                summary["metrics"][f"{name}.{metric}"] = value
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per layer (traced)")):
        print(f"\n{title:<40}" + "".join(f"{w:>18}" for w in WORKLOADS) + "  unit")
        for metric, row in tables[trace].items():
            unit = next(iter(row.values()))["unit"]
            cells = "".join(f"{row[w]['value']:>18.6g}" for w in WORKLOADS)
            print(f"{metric:<40}{cells}  {unit}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-store", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.build_store:
        _import_tuneseer()
        build_store(Path(args.build_store))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
