"""Command-line interface.

Subcommands: train, compare, features, recommend, report.  Options can come
from a JSON config file (--config); explicit flags override config keys.
Exit codes: 0 success, 1 contract/config error (a malformed flag value is
reported as ``error: <flag>: ...``), 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .errors import ContractError


def _parse_list(flag: str, text: str, convert=int) -> tuple:
    """Comma-separated values; a malformed or empty list is a config error."""
    try:
        values = tuple(convert(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values:
        raise ContractError(f"{flag}: expected a comma-separated list, got {text!r}")
    return values


def _parse_seeds(flag: str, text: str) -> tuple:
    """Either a count ('30' -> seeds 0..29) or an explicit comma list."""
    values = _parse_list(flag, text)
    return values if "," in text else tuple(range(values[0]))


def _add_campaign_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--suite", choices=["training", "holdout"])
    sub.add_argument("--dims", help="comma-separated dimensions, e.g. 2,10,20")
    sub.add_argument("--instances", type=int, help="instance count per function")
    sub.add_argument("--seeds", help="seed count or comma list (comparison runs)")
    sub.add_argument("--train-seeds", help="seed count or comma list (training runs)")
    sub.add_argument("--budget", type=int)
    sub.add_argument(
        "--sigma", help="feature sample count; comma list allowed for `features`"
    )
    sub.add_argument("--kappa", type=int)
    sub.add_argument("--n-param-sets", type=int)
    sub.add_argument("--methods", help="comma list from: " + ",".join(harness.METHOD_ORDER))
    sub.add_argument("--out", help="output directory (default $TUNESEER_DATA or ./runs)")
    sub.add_argument("--store", help="training store path (default <out>/store.jsonl)")
    sub.add_argument("--workers", type=int)
    sub.add_argument(
        "--no-feature-scaling",
        action="store_true",
        help="cluster raw features instead of z-scored ones",
    )
    sub.add_argument("--retrain", choices=["per-run", "per-batch"])
    sub.add_argument("--campaign-seed", type=int)
    sub.add_argument(
        "--paper-instances",
        action="store_true",
        help="compare on the training instance seeds instead of fresh ones",
    )


def _campaign_config(args: argparse.Namespace) -> harness.CampaignConfig:
    config = (
        harness.CampaignConfig.from_file(args.config)
        if args.config
        else harness.CampaignConfig()
    )
    overrides = {
        "suite": args.suite,
        "dims": _parse_list("--dims", args.dims) if args.dims else None,
        "instances": args.instances,
        "seeds": _parse_seeds("--seeds", args.seeds) if args.seeds else None,
        "train_seeds": (
            _parse_seeds("--train-seeds", args.train_seeds) if args.train_seeds else None
        ),
        "budget": args.budget,
        "kappa": args.kappa,
        "n_param_sets": args.n_param_sets,
        "methods": tuple(args.methods.split(",")) if args.methods else None,
        "out": args.out,
        "store_path": args.store,
        "workers": args.workers,
        "retrain": args.retrain,
        "campaign_seed": args.campaign_seed,
    }
    if args.sigma:
        sigmas = _parse_list("--sigma", args.sigma)
        if len(sigmas) > 1 and args.command != "features":
            raise ContractError(
                f"--sigma: only features takes a list, {args.command} takes one "
                f"value, got {args.sigma!r}"
            )
        overrides["sigma"] = sigmas[0]
        overrides["sigmas"] = sigmas if len(sigmas) > 1 else None
    if args.no_feature_scaling:
        overrides["feature_scaling"] = False
    if args.paper_instances:
        overrides["paper_instances"] = True
    return config.merged(overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        _add_campaign_flags(sub)

    rec = subs.add_parser("recommend", help="one-shot parameter recommendation")
    rec.add_argument("--store", required=True)
    rec.add_argument("--kappa", type=int, default=10)
    rec.add_argument("--beta", help="explicit feature triple, e.g. 10,1.3,0.2")
    rec.add_argument("--function", help="sample features from this function id")
    rec.add_argument("--dim", type=int)
    rec.add_argument("--instance", type=int, default=0)
    rec.add_argument("--sigma", type=int, default=1000)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--no-feature-scaling", action="store_true")

    rep = subs.add_parser("report", help="re-derive comparison tables from alpha.csv")
    rep.add_argument("--out", default=harness.default_out_dir())

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            harness.cmd_train(_campaign_config(args))
        elif args.command == "compare":
            harness.cmd_compare(_campaign_config(args))
        elif args.command == "features":
            harness.cmd_features(_campaign_config(args))
        elif args.command == "recommend":
            beta = None
            if args.beta:
                beta = _parse_list("--beta", args.beta, float)
                if len(beta) != 3:
                    raise ContractError("--beta: needs exactly three values")
            harness.cmd_recommend(
                store_path=args.store,
                kappa=args.kappa,
                beta=beta,
                function_id=args.function,
                dim=args.dim,
                instance_seed=args.instance,
                sigma=args.sigma,
                seed=args.seed,
                scale=not args.no_feature_scaling,
            )
        elif args.command == "report":
            harness.cmd_report(args.out)
    except (ContractError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
