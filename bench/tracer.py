"""Span tracing from outside the program, and the per-layer metrics it yields.

Only the traced run installs the tracer. It replaces each listed public
function at every qdecision module binding that refers to it (so calls
between modules are caught too) and the ``__init__`` of the validated
types, records one span per call in memory, and puts everything back on
``uninstall``. The program's code is not changed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time
from collections import defaultdict

# (span name, module, attribute); an attribute "Class.__init__" wraps a constructor.
TARGETS = (
    ("cli.main", "qdecision.cli", "main"),
    ("scenario.parse_scenario", "qdecision.scenario", "parse_scenario"),
    ("scenario.run_scenario", "qdecision.scenario", "run_scenario"),
    ("report.emit_report", "qdecision.report", "emit_report"),
    ("variables.variable_from_spectrum", "qdecision.variables", "variable_from_spectrum"),
    ("variables.DecisionVariable.init", "qdecision.variables", "DecisionVariable.__init__"),
    ("linalg.projector_onto_span", "qdecision.linalg", "projector_onto_span"),
    ("linalg.hermitian_eig", "qdecision.linalg", "hermitian_eig"),
    ("linalg.StateVector.init", "qdecision.linalg", "StateVector.__init__"),
    ("linalg.Projector.init", "qdecision.linalg", "Projector.__init__"),
    ("linalg.DensityOperator.init", "qdecision.linalg", "DensityOperator.__init__"),
    ("linalg.Effect.init", "qdecision.linalg", "Effect.__init__"),
    ("engine.event_probability", "qdecision.engine", "event_probability"),
    ("engine.collapse_onto", "qdecision.engine", "collapse_onto"),
    ("engine.outcome_distribution", "qdecision.engine", "outcome_distribution"),
    ("engine.sequential_event_probability", "qdecision.engine", "sequential_event_probability"),
    ("engine.expectation", "qdecision.engine", "expectation"),
    ("engine.ic_effect_basis", "qdecision.engine", "ic_effect_basis"),
    ("engine.gpm_evaluate", "qdecision.engine", "gpm_evaluate"),
    ("engine.reconstruct_density", "qdecision.engine", "reconstruct_density"),
    ("phenomena.conjunction_report", "qdecision.phenomena", "conjunction_report"),
    ("phenomena.total_probability_report", "qdecision.phenomena", "total_probability_report"),
    ("phenomena.sure_thing_check", "qdecision.phenomena", "sure_thing_check"),
    ("spin.sample_phi", "qdecision.spin", "sample_phi"),
    ("spin.comparison_report", "qdecision.spin", "comparison_report"),
)
LAYERS = ("cli", "scenario", "report", "variables", "linalg", "engine", "phenomena", "spin")
LINALG_TYPES = ("StateVector", "Projector", "DensityOperator", "Effect")

# Span record fields.
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """In-memory span recorder; ``op_id`` is set by the loop before each op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for _, module_name, _ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "qdecision" or n.startswith("qdecision.")]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if attr.endswith(".__init__"):
                cls = getattr(module, attr.split(".")[0])
                self._restore.append((cls, "__init__", cls.__dict__["__init__"]))
                setattr(cls, "__init__", self.wrap(name, cls.__dict__["__init__"]))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path: str, header: str) -> None:
        """Spans as gzip'd CSV: name, start_ns, end_ns, parent index, op id, error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write("name,start_ns,end_ns,parent,op,error\n")
            for s in self.spans:
                fh.write(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[OP]},{int(s[ERROR])}\n")


def self_times(spans: list[list]) -> list[int]:
    """Duration minus the time covered by direct children (children never overlap)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# ---------------------------------------------------------------------------
# per-layer metrics
#
# (metric, span name(s), statistic, op-tag filter, unit). Statistics:
#   us / ms        median duration of matching spans
#   self_us        median self time
#   per_op         matching spans divided by matching ops (exact: whole rounds)
#   sum_us_per_op  summed duration of matching spans divided by matching ops

_INITS = tuple(f"linalg.{t}.init" for t in LINALG_TYPES)
ANALYZE = {"op": "analyze"}
VALID = {"op": "analyze", "valid": True}

SPAN_METRICS = (
    ("cli.main.self_us", "cli.main", "self_us", ANALYZE, "us"),
    ("cli.main.demo_spin.ms", "cli.main", "ms", {"op": "spin"}, "ms"),
    ("scenario.parse_scenario.self_us", "scenario.parse_scenario", "self_us", ANALYZE, "us"),
    ("scenario.parse_scenario.total_us.d2", "scenario.parse_scenario", "us", {**VALID, "d": 2}, "us"),
    ("scenario.parse_scenario.total_us.d16", "scenario.parse_scenario", "us", {**VALID, "d": 16}, "us"),
    ("scenario.run_scenario.self_us", "scenario.run_scenario", "self_us", ANALYZE, "us"),
    ("scenario.run_scenario.total_us.d2", "scenario.run_scenario", "us", {**VALID, "d": 2}, "us"),
    *((f"report.emit_report.us.{f}", "report.emit_report", "us", {**VALID, "fmt": f}, "us")
      for f in ("text", "csv", "structured")),
    ("variables.variable_from_spectrum.us.d2", "variables.variable_from_spectrum", "us", {"d": 2}, "us"),
    ("variables.variable_from_spectrum.us.d16", "variables.variable_from_spectrum", "us", {"d": 16}, "us"),
    ("variables.DecisionVariable.init.self_us", "variables.DecisionVariable.init", "self_us", {}, "us"),
    ("linalg.projector_onto_span.us.d2", "linalg.projector_onto_span", "us", {"d": 2}, "us"),
    ("linalg.projector_onto_span.us.d16", "linalg.projector_onto_span", "us", {"d": 16}, "us"),
    ("linalg.hermitian_eig.us.d8", "linalg.hermitian_eig", "us", {"d": 8}, "us"),
    ("linalg.Projector.init.us.d2", "linalg.Projector.init", "us", {"d": 2}, "us"),
    ("linalg.StateVector.init.us.d2", "linalg.StateVector.init", "us", {"d": 2}, "us"),
    *((f"linalg.constructed_per_op.{t}", f"linalg.{t}.init", "per_op", {}, "count") for t in LINALG_TYPES),
    ("linalg.validation_us_per_op", _INITS, "sum_us_per_op", {}, "us"),
    ("engine.calls_per_op.event_probability", "engine.event_probability", "per_op", {}, "count"),
    ("engine.event_probability.us", "engine.event_probability", "us", {}, "us"),
    ("engine.collapse_onto.us", "engine.collapse_onto", "us", {}, "us"),
    ("engine.sequential_event_probability.us", "engine.sequential_event_probability", "us", {}, "us"),
    ("engine.outcome_distribution.us.d8", "engine.outcome_distribution", "us", {"d": 8}, "us"),
    ("engine.expectation.us", "engine.expectation", "us", {}, "us"),
    ("phenomena.conjunction_report.self_us.d2", "phenomena.conjunction_report", "self_us", {"d": 2}, "us"),
    ("phenomena.conjunction_report.us.d2", "phenomena.conjunction_report", "us", {"d": 2}, "us"),
    ("phenomena.total_probability_report.self_us.d8", "phenomena.total_probability_report", "self_us", {"d": 8}, "us"),
    ("phenomena.sure_thing_check.self_us.d8", "phenomena.sure_thing_check", "self_us", {"d": 8}, "us"),
    *((f"engine.ic_effect_basis.ms.r{r}", "engine.ic_effect_basis", "ms", {"r": r}, "ms") for r in (8, 16, 32)),
    ("engine.gpm_evaluate.us.r32", "engine.gpm_evaluate", "us", {"r": 32}, "us"),
    *((f"engine.reconstruct_density.ms.r{r}", "engine.reconstruct_density", "ms", {"r": r, "noisy": False}, "ms")
      for r in (8, 16, 32)),
    ("engine.reconstruct_density.ms.r32_noisy", "engine.reconstruct_density", "ms", {"r": 32, "noisy": True}, "ms"),
    ("spin.sample_phi.calls_per_demo", "spin.sample_phi", "per_op", {"op": "spin"}, "count"),
    ("spin.sample_phi.ms", "spin.sample_phi", "ms", {"op": "spin"}, "ms"),
    ("spin.comparison_report.ms", "spin.comparison_report", "ms", {"op": "spin"}, "ms"),
)


def _matches(tags: dict, want: dict) -> bool:
    return all(tags.get(k) == v for k, v in want.items())


def span_metrics(spans: list[list], op_tags: list[dict], rounds: int) -> dict[str, tuple[float, str]]:
    """Every span metric plus ``<layer>.errors`` (error spans per round).

    A metric whose spans never occur on this workload reads 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
    out: dict[str, tuple[float, str]] = {}
    for metric, names, stat, want, unit in SPAN_METRICS:
        names = (names,) if isinstance(names, str) else names
        idx = [i for n in names for i in by_name.get(n, ()) if _matches(op_tags[spans[i][OP]], want)]
        if stat in ("per_op", "sum_us_per_op"):
            n_ops = sum(1 for t in op_tags if _matches(t, want))
            total = len(idx) if stat == "per_op" else sum(spans[i][END] - spans[i][START] for i in idx) / 1e3
            value = total / n_ops if n_ops else 0.0
        elif not idx:
            value = 0.0
        elif stat == "self_us":
            value = statistics.median(own[i] for i in idx) / 1e3
        else:
            scale = 1e3 if stat == "us" else 1e6
            value = statistics.median(spans[i][END] - spans[i][START] for i in idx) / scale
        out[metric] = (value, unit)
    errors = defaultdict(int)
    for s in spans:
        if s[ERROR]:
            errors[s[NAME].split(".")[0]] += 1
    for layer in LAYERS:
        out[f"{layer}.errors"] = (errors[layer] / rounds if rounds else 0.0, "count")
    return out
