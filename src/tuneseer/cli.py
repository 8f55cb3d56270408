"""Command-line interface.

Subcommands: train, compare, features, recommend, report.  Options can come
from a JSON config file (--config); explicit flags override config keys.
Every flag value, an empty one too, is read by ``_parse``.  Exit codes: 0
success, 1 contract/config error (a malformed or empty flag value is
reported as ``error: <flag>: ...``, a usage error such as an unknown flag as
one ``error: ...`` line), 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from . import harness
from .errors import ContractError


def _parse(flag: str, text: str, convert):
    """``convert(text)``, a ``ValueError`` reported as a config error."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ContractError(f"{flag}: {exc}") from None


def _text(text: str) -> str:
    if not text.strip():
        raise ValueError(f"expected a value, got {text!r}")
    return text


def _list(text: str, convert=int) -> tuple:
    """Comma-separated values, empty parts skipped; at least one."""
    values = tuple(convert(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return values


def _seeds(text: str) -> tuple:
    """Either a count ('30' -> seeds 0..29) or, with a comma, a list."""
    values = _list(text)
    return values if "," in text else tuple(range(values[0]))


def _beta(text: str) -> tuple:
    beta = _list(text, float)
    if len(beta) != 3:
        raise ValueError("needs exactly three values")
    if not all(map(math.isfinite, beta)):
        raise ValueError(f"expected finite values, got {text!r}")
    return beta


# (flag, CampaignConfig key, converter, help); a bool converter marks a switch
# that sets its key to that value.  --config is the file the others override;
# a --sigma list sets sigma to its first value and, if longer, sigmas to all.
_CAMPAIGN_FLAGS = (
    ("--config", "config", _text, "JSON config file; flags override its keys"),
    ("--suite", "suite", _text, "training|holdout"),
    ("--dims", "dims", _list, "comma-separated dimensions, e.g. 2,10,20"),
    ("--instances", "instances", int, "instance count per function"),
    ("--seeds", "seeds", _seeds, "seed count or comma list (comparison runs)"),
    ("--train-seeds", "train_seeds", _seeds, "seed count or comma list (training runs)"),
    ("--budget", "budget", int, "evaluations per run, feature sample included"),
    ("--sigma", "sigma", _list, "feature sample count; a comma list for features only"),
    ("--kappa", "kappa", int, "cluster count"),
    ("--n-param-sets", "n_param_sets", int, "parameter triples per training key"),
    ("--methods", "methods", partial(_list, convert=str),
     "comma list from: " + ",".join(harness.METHOD_ORDER)),
    ("--out", "out", _text, "output directory (default $TUNESEER_DATA or ./runs)"),
    ("--store", "store_path", _text, "training store path (default <out>/store.jsonl)"),
    ("--workers", "workers", int, "worker processes"),
    ("--no-feature-scaling", "feature_scaling", False, "skip z-scoring the features"),
    ("--retrain", "retrain", _text, "per-run|per-batch"),
    ("--campaign-seed", "campaign_seed", int, "seed of every run's random stream"),
    ("--paper-instances", "paper_instances", True, "reuse the training instance seeds"),
)

# (flag, cmd_recommend keyword, converter, help); defaults are cmd_recommend's
_RECOMMEND_FLAGS = (
    ("--store", "store_path", _text, "training store path"),
    ("--kappa", "kappa", int, "cluster count"),
    ("--beta", "beta", _beta, "explicit feature triple, e.g. 10,1.3,0.2"),
    ("--function", "function_id", _text, "sample features from this function id"),
    ("--dim", "dim", int, "dimension of --function"),
    ("--instance", "instance_seed", int, "instance seed of --function"),
    ("--sigma", "sigma", int, "feature sample count"),
    ("--seed", "seed", int, "feature sample seed"),
    ("--no-feature-scaling", "scale", False, "skip z-scoring the features"),
)


def _add_flags(sub: argparse.ArgumentParser, rows, required=()) -> None:
    for flag, key, convert, doc in rows:
        if isinstance(convert, bool):
            sub.add_argument(flag, dest=key, action="store_const", const=convert, help=doc)
        else:
            sub.add_argument(flag, dest=key, help=doc, required=flag in required)


def _values(args: argparse.Namespace, rows) -> dict:
    """``{key: value}`` of every flag in ``rows`` that was given."""
    values = {}
    for flag, key, convert, _ in rows:
        value = getattr(args, key)
        if isinstance(value, str):
            value = _parse(flag, value, convert)
        if value is not None:
            values[key] = value
    return values


def _campaign_config(args: argparse.Namespace) -> harness.CampaignConfig:
    overrides = _values(args, _CAMPAIGN_FLAGS)
    path = overrides.pop("config", None)
    config = harness.CampaignConfig.from_file(path) if path else harness.CampaignConfig()
    if "sigma" in overrides:
        sigmas = overrides["sigma"]
        overrides.update(sigma=sigmas[0], sigmas=sigmas if len(sigmas) > 1 else None)
    return config.merged(overrides)


class _Parser(argparse.ArgumentParser):
    """A usage error is a config error: ``main`` reports it and returns 1."""

    def error(self, message: str):
        raise ContractError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tuneseer",
        description="Feature-predictive control-parameter selection for "
        "differential evolution",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, doc in [
        ("train", "run the off-line training campaign and write the store"),
        ("compare", "run the requested methods on matched test keys"),
        ("features", "emit the feature table with cluster assignments"),
    ]:
        sub = subs.add_parser(name, help=doc)
        _add_flags(sub, _CAMPAIGN_FLAGS)

    rec = subs.add_parser("recommend", help="one-shot parameter recommendation")
    _add_flags(rec, _RECOMMEND_FLAGS, required=("--store",))

    rep = subs.add_parser("report", help="re-derive comparison tables from alpha.csv")
    rep.add_argument("--out", default=harness.default_out_dir())

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "recommend":
            harness.cmd_recommend(**_values(args, _RECOMMEND_FLAGS))
        elif args.command == "report":
            harness.cmd_report(_parse("--out", args.out, _text))
        else:  # train, compare, features
            getattr(harness, f"cmd_{args.command}")(_campaign_config(args))
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
