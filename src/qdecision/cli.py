"""Command-line interface.

    qdecision analyze FILE [--format text|csv|structured] [--seed N]
    qdecision demo medical [--angle-a 40 --angle-b 70]
    qdecision demo spin [--delta-degrees 60 --samples 1000000 --seed 42]
    qdecision demo reconstruct [--dim 3 --seed 7]
    qdecision --tolerances

Exit codes: 0 success, 1 scenario validation/syntax error or usage error
(such as ``--dim x``), 2 engine error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import tolerances as tol
from .demos import run_medical_demo, run_reconstruct_demo, run_spin_demo
from .errors import EngineError, ScenarioError, ScenarioValidationError
from .report import REPORT_FORMATS, emit_report, emit_tolerances
from .scenario import parse_scenario, run_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ENGINE = 2


class _Parser(argparse.ArgumentParser):
    """Ends a usage error as a scenario error: the usage text, then exit 1; subparsers inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"scenario error: {message}\n")


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=REPORT_FORMATS,
        default="text",
        help="report output format (default: text)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    ``main`` reuses it for each call in a process; callers must not mutate it.
    """
    parser = _Parser(
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out, err = sys.stdout, sys.stderr

    if args.tolerances:
        out.write(emit_tolerances())
        return EXIT_OK
    if args.command is None:
        parser.print_help(out)
        return EXIT_OK

    try:
        for flag in ("--angle-a", "--angle-b", "--delta-degrees"):
            angle = getattr(args, flag[2:].replace("-", "_"), 0.0)
            if not math.isfinite(angle):
                raise ScenarioValidationError(flag, f"angle must be a finite number of degrees, got {angle!r}")
        if args.command == "demo" and getattr(args, "seed", 0) < 0:
            raise ScenarioValidationError("--seed", f"seed must be a non-negative integer, got {args.seed}")
        if getattr(args, "dim", 2) < 2:
            raise ScenarioValidationError("--dim", f"dimension must be an integer >= 2, got {args.dim}")
        if getattr(args, "dim", 0) > tol.MAX_DIMENSION:
            raise ScenarioValidationError("--dim", f"dimension must be at most {tol.MAX_DIMENSION}, got {args.dim}")
        if not 1 <= getattr(args, "samples", 1) <= tol.MAX_SPIN_SAMPLES:
            bound = f"sample count must be an integer from 1 to {tol.MAX_SPIN_SAMPLES}"
            raise ScenarioValidationError("--samples", f"{bound}, got {args.samples}")
        if args.command == "analyze":
            try:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ScenarioError(f"cannot read {args.file!r}: {exc}") from exc
            report = run_scenario(parse_scenario(text), seed=args.seed)
        elif args.demo_name == "medical":
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
