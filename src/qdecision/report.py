"""Report structure and byte-deterministic emitters.

Every float is printed with exactly 12 significant digits, '.' decimal
separator, independent of locale, in all three formats. Identical reports
therefore always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass

from . import tolerances as tol
from ._version import __version__

__all__ = ["QueryResult", "Report", "format_number", "emit_report", "emit_tolerances", "REPORT_FORMATS"]

Value = float | int | bool | str


_SIGNIFICANT = f"#.{tol.FLOAT_SIG_DIGITS}g"  # built once: a nested spec is rebuilt on every call


def format_number(x: float) -> str:
    """Positional decimal representation with ``FLOAT_SIG_DIGITS`` significant digits."""
    x = float(x)
    if x == 0.0:
        return "0." + "0" * tol.FLOAT_SIG_DIGITS
    s = f"{x:{_SIGNIFICANT}}"  # positional, '#' keeping its zeros, for a rounded decimal exponent in [-4, N)
    if "e" not in s and "n" not in s:  # neither an exponent outside that range nor inf or nan
        return s
    mantissa, exponent = s.split("e")  # as ".11e" gives them; inf and nan hold no 'e' and raise here
    e = int(exponent)  # after the rounding to FLOAT_SIG_DIGITS, which may carry into the next power of ten
    if e >= tol.FLOAT_SIG_DIGITS:
        return mantissa.replace(".", "") + "0" * (e - tol.FLOAT_SIG_DIGITS + 1)
    return f"{x:#.{tol.FLOAT_SIG_DIGITS - 1 - e}f}"  # the same rounding at the same place; '#' keeps a final '.'


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
    return "\n".join(lines) + "\n" + _tolerance_rows("text")


def _emit_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["query_index", "name", "value"])
    for name, value in report.meta_rows():
        writer.writerow([0, name, _render_value(value)])
    buf.write(_tolerance_rows("csv"))
    for result in report.results:
        for name, value in result.rows():
            writer.writerow([result.index, name, _render_value(value)])
    return buf.getvalue()


_encode_string = json.JSONEncoder(ensure_ascii=False).encode


def _json_scalar(v: Value) -> str:
    if isinstance(v, (int, float)):  # bool is an int
        return _render_value(v)
    return _encode_string(str(v))


def _json_object(rows, indent: str) -> str:
    """``rows`` as a JSON object whose members sit at ``indent``, its closing brace two spaces left of them."""
    if not rows:
        return "{}"
    members = ",\n".join(f"{indent}{_encode_string(name)}: {_json_scalar(value)}" for name, value in rows)
    return "{\n" + members + "\n" + indent[:-2] + "}"


def _emit_structured(report: Report) -> str:
    results = ",\n".join(
        "    {\n"
        f'      "index": {r.index},\n'
        f'      "kind": {_encode_string(r.kind)},\n'
        f'      "echo": {_json_object(r.echo, " " * 8)},\n'
        f'      "outputs": {_json_object(r.outputs, " " * 8)},\n'
        f'      "flags": {_json_object(r.flags, " " * 8)}\n'
        "    }"
        for r in report.results
    )
    head = "".join(f"  {_encode_string(name)}: {_json_scalar(value)},\n" for name, value in report.meta_rows())
    tail = f'  "results": [\n{results}\n  ]\n' if results else '  "results": []\n'
    return "{\n" + head + _tolerance_rows("structured") + tail + "}\n"


@functools.cache
def _tolerance_rows(fmt: str) -> str:
    """The tolerance rows of a ``fmt`` report; they are the same in every report, so each is rendered once."""
    rows = tol.all_defaults().items()
    if fmt == "text":
        return "\ntolerances:\n" + "".join(line + "\n" for line in _aligned(rows))
    if fmt == "csv":  # names and numbers hold nothing that csv quotes
        return "".join(f"0,tolerance.{name},{_render_value(value)}\n" for name, value in rows)
    return f'  "tolerances": {_json_object(rows, " " * 4)},\n'


_EMITTERS = {"text": _emit_text, "csv": _emit_csv, "structured": _emit_structured}
REPORT_FORMATS = tuple(_EMITTERS)


def emit_report(report: Report, fmt: str = "text") -> str:
    """Serialize a report as text, csv or structured (JSON) output."""
    if fmt not in REPORT_FORMATS:  # a tuple compares by ==, so an unhashable format is refused like any other
        raise ValueError(f"unknown report format {fmt!r} (choose from {REPORT_FORMATS})")
    return _EMITTERS[fmt](report)
