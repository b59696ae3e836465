"""Command-line interface.

Subcommands map one-to-one onto the library surfaces:

* ``analyze``   - exponent bounds (plus the toggled diagnostics) for a subject;
* ``profile``   - image-geometry profile only;
* ``extremal``  - geometry plus extremality diagnostics;
* ``elliptic``  - coefficient-matrix subject: bound comparisons;
* ``catalog``   - list the built-in test maps.

Flags mirror config keys and override them. Exit codes: 0 ok, 1 usage or
configuration error, 2 invariant violation, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import list_catalog
from .config import DEFAULTS, AnalysisConfig, build_config, read_config
from .errors import (
    ConfigError,
    FieldValidationError,
    InvariantViolationError,
    NumericalError,
)
from .reporting import emit_report, report_json_bytes, run_analysis

_EPILOG = "defaults: " + json.dumps(DEFAULTS, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; config problems are exit 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    sub.add_argument("--subject", help="catalog spec like 'radial_stretch(K=2)' or a CSV path")
    sub.add_argument("--out", help="write the JSON report here (default: stdout)")
    sub.add_argument("--csv-dir", help="also write the per-profile CSV bundle here")
    sub.add_argument(
        "--nodes", type=int,
        help="angular quadrature nodes (power of two; nodes * 2**max_doublings <= 2**20)",
    )
    sub.add_argument("--max-doublings", type=int, help="angular node-doubling budget")
    sub.add_argument("--rel-tol", type=float, help="quadrature convergence tolerance")
    sub.add_argument("--radii-min", type=float, help="smallest profile radius")
    sub.add_argument("--radii-max", type=float, help="largest profile radius")
    sub.add_argument("--radii-count", type=int, help="number of profile radii (log-spaced)")
    sub.add_argument("--outer-radius", type=float, help="outer analysis-disk radius")
    sub.add_argument("--threshold", type=float, help="extremality ratio threshold")
    sub.add_argument(
        "--interpolation", choices=("bilinear", "nearest"), help="sampled-grid interpolation"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="qcreg", description=__doc__, epilog=_EPILOG)
    subs = parser.add_subparsers(dest="command", required=True)
    # built once and shared: each add_argument builds a help formatter
    common = _Parser(add_help=False)
    _add_common(common)
    for name, descr in (
        ("analyze", "exponent bounds and configured diagnostics"),
        ("profile", "image-geometry profile of a catalog map"),
        ("extremal", "extremality diagnostics of a catalog map"),
        ("elliptic", "bound comparisons for a coefficient-matrix subject"),
    ):
        subs.add_parser(name, help=descr, epilog=_EPILOG, parents=[common])
    subs.add_parser("catalog", help="list the built-in test maps")
    return parser


def _override(raw: dict, key: str, flags) -> None:
    """Set the keys of the object raw[key] that given flags name, keep the rest."""
    given = {name: val for name, val in flags if val is not None}
    if not given:
        return
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{key} must be an object for flags to override its keys, "
                          f"got {section!r}")
    raw[key] = {**section, **given}


def _config_from_args(args) -> AnalysisConfig:
    raw = read_config(args.config) if args.config else {}
    if args.subject:
        raw["subject"] = args.subject
    if "subject" not in raw:
        raise ConfigError("a subject is required (--subject or a config file)")
    _override(raw, "quadrature", (
        ("nodes", args.nodes),
        ("max_doublings", args.max_doublings),
        ("rel_tol", args.rel_tol),
    ))
    _override(raw, "radii", (
        ("min", args.radii_min),
        ("max", args.radii_max),
        ("count", args.radii_count),
    ))
    _override(raw, "domain", (("outer_radius", args.outer_radius),))
    if args.threshold is not None:
        raw["threshold"] = args.threshold
    if args.interpolation is not None:
        raw["interpolation"] = args.interpolation
    if args.out:
        raw["output_json"] = args.out
    if args.csv_dir:
        raw["output_csv_dir"] = args.csv_dir
    if args.command == "profile":
        raw["diagnostics"] = {"geometry": True, "extremal": False}
    elif args.command == "extremal":
        raw["diagnostics"] = {"geometry": True, "extremal": True}
    return build_config(raw)




def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            for row in list_catalog():
                print(f"{row['name']}({row['parameters']})  ->  {row['map']}")
            return 0
        cfg = _config_from_args(args)
        if args.command == "elliptic" and cfg.subject_kind != "matrix":
            raise ConfigError(
                f"'elliptic' needs a coefficient-matrix CSV subject, got {cfg.subject_kind}"
            )
        if args.command in ("profile", "extremal") and cfg.subject_kind != "catalog":
            raise ConfigError(f"'{args.command}' needs a catalog subject")
        report = run_analysis(cfg)
        written = emit_report(report, cfg.output_json, cfg.output_csv_dir)
        if cfg.output_json is None:
            sys.stdout.write(report_json_bytes(report).decode())
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"qcreg: config error: {exc}", file=sys.stderr)
        return 1
    except (InvariantViolationError, FieldValidationError) as exc:
        print(f"qcreg: invariant violation: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"qcreg: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
