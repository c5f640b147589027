"""Command-line interface: rate, sweep, optimize, validate.

Exit codes: 0 success, 1 a failed `validate` check, 2 infeasible
estimation program, 3 invalid configuration or arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import driver, validation
from .lp import InfeasibleProgramError
from .passive import EmptyRegionError


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--transmitter", choices=("passive", "oil"), default=None)
    parser.add_argument("--analysis", choices=("baseline", "refined"), default=None)
    parser.add_argument("--distance-km", type=float, action="append", default=None)
    parser.add_argument("--att-db", type=float, action="append", default=None)
    parser.add_argument("--ncut", type=int, default=None)
    parser.add_argument("--quadrature-nodes", type=int, default=None)
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--out", type=str, default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="leakyqkd",
                                     description="Key-rate bounds for modulator-free "
                                                 "decoy-state BB84 with leakage")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("rate", "evaluate a single grid point"),
                       ("sweep", "evaluate the full distance/attenuation grid"),
                       ("optimize", "optimise source parameters per grid point")):
        p = sub.add_parser(name, help=text)
        _add_common(p)
    v = sub.add_parser("validate", help="run the numerical cross-check oracles")
    v.add_argument("--seed", type=int, default=20240)
    v.add_argument("--samples", type=int, default=200_000)
    v.add_argument("--fast", action="store_true", help="reduced sample counts")
    return parser


def _load_config(args) -> driver.ProtocolConfig:
    data = {}
    if args.config:
        with open(args.config) as handle:
            data = json.load(handle)
    overrides = {name: value for name, value in (
        ("transmitter", args.transmitter), ("analysis", args.analysis),
        ("distances_km", args.distance_km), ("att_db", args.att_db),
        ("n_cut", args.ncut), ("quadrature_nodes", args.quadrature_nodes)) if value is not None}
    return driver.config_from_dict({**data, **overrides})


def _emit(reports, args):
    if args.format == "csv":
        text = driver.reports_to_csv(reports)
    else:
        text = json.dumps([dataclasses.asdict(r) for r in reports], indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        passed = validation.run_all(seed=args.seed, samples=args.samples, fast=args.fast)
        return 0 if passed else 1
    try:
        config = _load_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    try:
        if args.command == "optimize":
            reports = [driver.optimize_point(config, d, a)[1]
                       for d in config.distances_km for a in config.att_db]
        else:
            reports = driver.sweep(config, tolerate_failures=args.command == "sweep")
    except InfeasibleProgramError as exc:
        print(f"estimation program infeasible: {exc}", file=sys.stderr)
        return 2
    except EmptyRegionError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 3
    _emit(reports, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
