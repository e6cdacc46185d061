"""Command-line interface.

    qdecision analyze FILE [--format text|csv|structured] [--seed N]
    qdecision demo medical [--angle-a 40 --angle-b 70]
    qdecision demo spin [--delta-degrees 60 --samples 1000000 --seed 42]
    qdecision demo reconstruct [--dim 3 --seed 7]
    qdecision --tolerances

Exit codes: 0 success, 1 scenario validation/syntax error, 2 engine error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import tolerances as tol
from ._version import __version__
from .demos import run_medical_demo, run_reconstruct_demo, run_spin_demo
from .errors import EngineError, ScenarioError, ScenarioValidationError
from .report import REPORT_FORMATS, emit_report, format_number
from .scenario import parse_scenario, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ENGINE = 2


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=REPORT_FORMATS,
        default="text",
        help="report output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdecision",
        description="Quantum probability engine for decision variables.",
    )
    parser.add_argument(
        "--tolerances",
        action="store_true",
        help="print every numeric tolerance default and exit",
    )
    sub = parser.add_subparsers(dest="command")

    analyze = sub.add_parser("analyze", help="run a scenario file")
    analyze.add_argument("file", help="scenario document (UTF-8 JSON)")
    _add_format(analyze)
    analyze.add_argument("--seed", type=int, default=0, help="seed echoed into the report")

    demo = sub.add_parser("demo", help="run a built-in demonstration")
    demo_sub = demo.add_subparsers(dest="demo_name", required=True)

    medical = demo_sub.add_parser("medical", help="two-treatment decision scenario")
    medical.add_argument("--angle-a", type=float, default=40.0)
    medical.add_argument("--angle-b", type=float, default=70.0)
    _add_format(medical)

    spin = demo_sub.add_parser("spin", help="hidden-direction spin model vs Born rule")
    spin.add_argument("--delta-degrees", type=float, default=60.0)
    spin.add_argument("--samples", type=int, default=1_000_000)
    spin.add_argument("--seed", type=int, default=42)
    _add_format(spin)

    reconstruct = demo_sub.add_parser("reconstruct", help="density round-trip from effect probabilities")
    reconstruct.add_argument("--dim", type=int, default=3)
    reconstruct.add_argument("--seed", type=int, default=7)
    _add_format(reconstruct)

    return parser


def _print_tolerances(out) -> None:
    out.write(f"engine_version: {__version__}\n")
    defaults = tol.all_defaults()
    width = max(len(name) for name in defaults)
    for name, value in defaults.items():
        rendered = str(value) if isinstance(value, int) else format_number(value)
        out.write(f"{name:<{width}}  {rendered}\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out, err = sys.stdout, sys.stderr

    if args.tolerances:
        _print_tolerances(out)
        return EXIT_OK
    if args.command is None:
        parser.print_help(out)
        return EXIT_OK

    try:
        if args.command == "analyze":
            try:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ScenarioError(f"cannot read {args.file!r}: {exc}") from exc
            report = run_scenario(parse_scenario(text), seed=args.seed)
        elif args.demo_name == "medical":
            for flag, angle in (("--angle-a", args.angle_a), ("--angle-b", args.angle_b)):
                if not math.isfinite(angle):
                    raise ScenarioValidationError(flag, f"angle must be a finite number of degrees, got {angle!r}")
            report = run_medical_demo(args.angle_a, args.angle_b)
        elif args.demo_name == "spin":
            report = run_spin_demo(args.delta_degrees, args.samples, args.seed)
        else:
            report = run_reconstruct_demo(args.dim, args.seed)
    except ScenarioError as exc:
        err.write(f"scenario error: {exc}\n")
        return EXIT_VALIDATION
    except EngineError as exc:
        err.write(f"engine error: {exc}\n")
        return EXIT_ENGINE

    out.write(emit_report(report, getattr(args, "format", "text")))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
