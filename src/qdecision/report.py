"""Report structure and byte-deterministic emitters.

Every float is printed with exactly 12 significant digits, '.' decimal
separator, independent of locale, in all three formats. Identical reports
therefore always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import tolerances as tol
from ._version import __version__

__all__ = ["QueryResult", "Report", "format_number", "emit_report", "emit_tolerances", "REPORT_FORMATS"]

REPORT_FORMATS = ("text", "csv", "structured")

Value = float | int | bool | str


def format_number(x: float) -> str:
    """Positional decimal representation with ``FLOAT_SIG_DIGITS`` significant digits."""
    x = float(x)
    if x == 0.0:
        return "0." + "0" * tol.FLOAT_SIG_DIGITS
    mantissa, exponent = f"{x:.{tol.FLOAT_SIG_DIGITS - 1}e}".split("e")
    negative = mantissa.startswith("-")
    digits = mantissa.lstrip("-").replace(".", "")
    e = int(exponent)
    if e < 0:
        body = "0." + "0" * (-e - 1) + digits
    elif e >= tol.FLOAT_SIG_DIGITS:
        body = digits + "0" * (e - tol.FLOAT_SIG_DIGITS + 1)
    else:
        body = digits[: e + 1] + "." + digits[e + 1 :]
    return ("-" if negative else "") + body


def _render_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format_number(v)
    return str(v)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query: an echo of what was asked, then named outputs."""

    index: int
    kind: str
    echo: tuple[tuple[str, Value], ...] = ()
    outputs: tuple[tuple[str, Value], ...] = ()
    flags: tuple[tuple[str, bool], ...] = ()

    def rows(self) -> list[tuple[str, Value]]:
        return [("kind", self.kind), *self.echo, *self.outputs, *self.flags]


@dataclass(frozen=True)
class Report:
    """Full result of a run: provenance header plus one block per query."""

    engine_version: str
    context: str
    dimension: int
    seed: int
    results: tuple[QueryResult, ...]

    def meta_rows(self) -> list[tuple[str, Value]]:
        return [
            ("engine_version", self.engine_version),
            ("context", self.context),
            ("dimension", self.dimension),
            ("seed", self.seed),
        ]


def _aligned(rows, indent: str = "  ") -> list[str]:
    """One ``name  value`` line per row, the names padded to the longest."""
    width = max((len(name) for name, _ in rows), default=0)
    return [f"{indent}{name:<{width}}  {_render_value(value)}" for name, value in rows]


def emit_tolerances() -> str:
    """The engine version, then every tolerance of ``qdecision.tolerances`` as an aligned row."""
    rows = _aligned(tol.all_defaults().items(), indent="")
    return f"engine_version: {__version__}\n" + "".join(row + "\n" for row in rows)


def _emit_text(report: Report) -> str:
    lines = []
    for name, value in report.meta_rows():
        lines.append(f"{name}: {_render_value(value)}")
    if not report.results:
        lines.append("(no queries)")
    for result in report.results:
        lines.append("")
        lines.append(f"query {result.index}: {result.kind}")
        lines.extend(_aligned([*result.echo, *result.outputs, *result.flags]))
    lines.append("")
    lines.append("tolerances:")
    lines.extend(_aligned(tol.all_defaults().items()))
    return "\n".join(lines) + "\n"


def _emit_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query_index", "name", "value"])
    for name, value in report.meta_rows():
        writer.writerow([0, name, _render_value(value)])
    for name, value in tol.all_defaults().items():
        writer.writerow([0, f"tolerance.{name}", _render_value(value)])
    for result in report.results:
        for name, value in result.rows():
            writer.writerow([result.index, name, _render_value(value)])
    return buf.getvalue()


_encode_string = json.JSONEncoder(ensure_ascii=False).encode


def _json_scalar(v: Value) -> str:
    if isinstance(v, (int, float)):  # bool is an int
        return _render_value(v)
    return _encode_string(str(v))


def emit_json(node, indent: int = 0) -> str:
    """Minimal JSON writer with the fixed float convention."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(node, dict):
        if not node:
            return "{}"
        parts = [f'{inner}{_json_scalar(str(k))}: {emit_json(v, indent + 1)}' for k, v in node.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        parts = [f"{inner}{emit_json(v, indent + 1)}" for v in node]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if node is None:
        return "null"
    return _json_scalar(node)


def _emit_structured(report: Report) -> str:
    tree = {
        **{name: value for name, value in report.meta_rows()},
        "tolerances": tol.all_defaults(),
        "results": [
            {
                "index": r.index,
                "kind": r.kind,
                "echo": {name: value for name, value in r.echo},
                "outputs": {name: value for name, value in r.outputs},
                "flags": {name: value for name, value in r.flags},
            }
            for r in report.results
        ],
    }
    return emit_json(tree) + "\n"


def emit_report(report: Report, fmt: str = "text") -> str:
    """Serialize a report as text, csv or structured (JSON) output."""
    if fmt == "text":
        return _emit_text(report)
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "structured":
        return _emit_structured(report)
    raise ValueError(f"unknown report format {fmt!r} (choose from {REPORT_FORMATS})")
