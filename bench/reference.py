"""Independent references: plain-numpy Born probabilities and report readers.

Nothing here imports qdecision. Probabilities are computed straight from
the generated arrays (``||P_n ... P_1 psi||^2`` and ``tr(rho P)``), and
the three report formats are read back into rows with the standard
library only, so a check never compares the program with itself.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance on every probability and expectation read back from a report.
VALUE_TOL = 1e-9


def projector(group: np.ndarray) -> np.ndarray:
    """``V V^dag`` for a group of orthonormal eigenvectors given as rows."""
    v = np.asarray(group, dtype=complex).T
    return v @ v.conj().T


def probability(state: np.ndarray, proj: np.ndarray) -> float:
    """``<psi|P|psi>`` for a vector, ``tr(rho P)`` for a density matrix."""
    if state.ndim == 1:
        return float(np.linalg.norm(proj @ state) ** 2)
    return float(np.trace(state @ proj).real)


def chain(psi: np.ndarray, projectors) -> float:
    """``||P_n ... P_1 psi||^2``."""
    phi = psi
    for p in projectors:
        phi = p @ phi
    return float(np.linalg.norm(phi) ** 2)


def flag(value: bool, margin: float) -> list:
    """An expected boolean with the distance of its inputs from the decision edge."""
    return [bool(value), float(abs(margin))]


def conjunction(psi, pa, pb) -> dict:
    p_a, p_b = probability(psi, pa), probability(psi, pb)
    p_ab, p_ba = chain(psi, [pa, pb]), chain(psi, [pb, pa])
    return {
        "values": {
            "p_first": p_a,
            "p_second": p_b,
            "p_first_then_second": p_ab,
            "p_second_then_first": p_ba,
            "order_asymmetry": abs(p_ab - p_ba),
        },
        "flags": {"conjunction_flag": flag(p_ab > p_b + 1e-12, p_ab - p_b - 1e-12)},
    }


def total_probability(psi, partition: list[tuple[float, np.ndarray]], pt) -> dict:
    """``partition`` holds (value, projector) pairs in increasing value order."""
    p_direct = probability(psi, pt)
    terms = [[u, chain(psi, [pj, pt])] for u, pj in partition]
    p_via = sum(t for _, t in terms)
    return {
        "values": {"p_direct": p_direct, "p_via_partition": p_via, "interference": p_direct - p_via},
        "keyed": {"term": terms},
    }


def sure_thing(psi, condition: list[tuple[float, np.ndarray]], pc, threshold: float) -> dict:
    given = [[u, chain(psi, [pk, pc]) / probability(psi, pk)] for u, pk in condition]
    p_unc = probability(psi, pc)
    interference = p_unc - sum(chain(psi, [pk, pc]) for _, pk in condition)
    low = min(c for _, c in given)
    return {
        "values": {"p_choice_unconditional": p_unc, "interference": interference, "threshold": threshold},
        "keyed": {"p_choice_given": given},
        "flags": {
            "violation_flag": flag(
                low > threshold and p_unc <= threshold,
                min(abs(low - threshold), abs(p_unc - threshold)),
            )
        },
    }


# ---------------------------------------------------------------------------
# report readers


@dataclass
class Block:
    kind: str
    rows: dict = field(default_factory=dict)


@dataclass
class ParsedReport:
    meta: dict
    results: dict  # query index -> Block


def parse_text(text: str) -> ParsedReport:
    meta: dict = {}
    results: dict = {}
    current = None
    for line in text.split("\n"):
        if not line:
            continue
        if line == "tolerances:":
            break
        if line.startswith("query "):
            head, kind = line[len("query "):].split(": ", 1)
            current = results[int(head)] = Block(kind)
        elif line.startswith("  ") and current is not None:
            name, value = line.strip().split(None, 1)
            current.rows[name] = value
        elif current is None:
            name, value = line.split(": ", 1)
            meta[name] = value
        else:
            raise ValueError(f"unexpected report line {line!r}")
    return ParsedReport(meta, results)


def parse_csv(text: str) -> ParsedReport:
    reader = csv.reader(io.StringIO(text))
    if next(reader) != ["query_index", "name", "value"]:
        raise ValueError("csv report has an unexpected header")
    meta: dict = {}
    results: dict = {}
    for index, name, value in reader:
        i = int(index)
        if i == 0:
            if not name.startswith("tolerance."):
                meta[name] = value
        elif name == "kind":
            results[i] = Block(value)
        else:
            results[i].rows[name] = value
    return ParsedReport(meta, results)


def parse_structured(text: str) -> ParsedReport:
    tree = json.loads(text)
    meta = {k: tree[k] for k in ("engine_version", "context", "dimension", "seed")}
    results = {}
    for r in tree["results"]:
        results[r["index"]] = Block(r["kind"], {**r["echo"], **r["outputs"], **r["flags"]})
    return ParsedReport(meta, results)


PARSERS = {"text": parse_text, "csv": parse_csv, "structured": parse_structured}


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if v in ("true", "false"):
        return v == "true"
    raise ValueError(f"{v!r} is not a boolean")


def compare_block(block: Block, expected: dict) -> str | None:
    """Match one query block against its reference; None when it agrees.

    ``expected`` holds ``values`` (name -> number), ``keyed`` (prefix ->
    [value, number] pairs, read from rows named ``prefix[value]``) and
    ``flags`` (name -> [bool, margin]). A flag is only compared when its
    inputs sit further than ``VALUE_TOL`` from the decision edge.
    """
    if block.kind != expected["kind"]:
        return f"kind {block.kind!r}, expected {expected['kind']!r}"
    for name, want in expected.get("values", {}).items():
        if name not in block.rows:
            return f"missing output {name!r}"
        got = float(block.rows[name])
        if not abs(got - want) <= VALUE_TOL:
            return f"{name} = {got!r}, reference {want!r}"
    for prefix, pairs in expected.get("keyed", {}).items():
        found = {
            round(float(name[len(prefix) + 1:-1]), 9): float(v)
            for name, v in block.rows.items()
            if name.startswith(prefix + "[")
        }
        if len(found) != len(pairs):
            return f"{len(found)} {prefix} rows, expected {len(pairs)}"
        for u, want in pairs:
            got = found.get(round(u, 9))
            if got is None or not abs(got - want) <= VALUE_TOL:
                return f"{prefix}[{u}] = {got!r}, reference {want!r}"
    for name, (want, margin) in expected.get("flags", {}).items():
        if name not in block.rows:
            return f"missing flag {name!r}"
        if margin > VALUE_TOL and _as_bool(block.rows[name]) != want:
            return f"{name} = {block.rows[name]!r}, reference {want}"
    return None


def compare_report(parsed: ParsedReport, expected: dict) -> str | None:
    """Match a whole report against a document's reference; None when it agrees."""
    if int(parsed.meta.get("dimension", -1)) != expected["dimension"]:
        return f"dimension {parsed.meta.get('dimension')!r}, expected {expected['dimension']}"
    if sorted(parsed.results) != list(range(1, len(expected["queries"]) + 1)):
        return f"query indices {sorted(parsed.results)}, expected 1..{len(expected['queries'])}"
    for i, want in enumerate(expected["queries"], start=1):
        problem = compare_block(parsed.results[i], want)
        if problem:
            return f"query {i}: {problem}"
    return None
