"""Built-in demonstrations for the command line.

Each demo runs through the code that owns its numbers: the medical demo
parses and runs a scenario document, the reconstruction demo runs a
seeded random density as the one ``reconstruct_check`` query of an
in-memory scenario, and the spin demo lays out one ``comparison_report``.
"""

from __future__ import annotations

import numpy as np

from ._version import __version__
from .engine import ic_effect_basis
from .errors import InvalidSeed
from .linalg import DensityOperator
from .report import QueryResult, Report
from .scenario import Query, Scenario, parse_scenario, run_scenario
from .spin import Direction, comparison_report

__all__ = [
    "medical_document",
    "run_medical_demo",
    "run_spin_demo",
    "run_reconstruct_demo",
]


def medical_document(angle_a: float = 40.0, angle_b: float = 70.0) -> str:
    """Two-treatment scenario document exhibiting the non-classical effects.

    One doctor, two treatments: indicator variables ``a_helps`` and
    ``b_helps`` whose "yes" directions sit at the given plane angles, and a
    patient state along the first axis. The defaults 40/70 degrees witness
    the conjunction effect, a large order asymmetry, and total-probability
    interference all at once.
    """
    return f"""{{
  "context": "medical-demo",
  "dimension": 2,
  "state": {{"vector": [[1.0, 0.0], [0.0, 0.0]]}},
  "variables": [
    {{"name": "a_helps", "values": [0, 1], "basis_angle_degrees": {float(angle_a)!r}}},
    {{"name": "b_helps", "values": [0, 1], "basis_angle_degrees": {float(angle_b)!r}}}
  ],
  "queries": [
    {{"kind": "distribution", "variable": "a_helps"}},
    {{"kind": "conjunction", "first": ["a_helps", 1], "second": ["b_helps", 1]}},
    {{"kind": "total_probability", "partition": "b_helps", "target": ["a_helps", 1]}},
    {{"kind": "sure_thing", "condition": "b_helps", "choice": ["a_helps", 1], "threshold": 0.5}}
  ]
}}
"""


def run_medical_demo(angle_a: float = 40.0, angle_b: float = 70.0) -> Report:
    return run_scenario(parse_scenario(medical_document(angle_a, angle_b)))


def run_spin_demo(delta_degrees: float = 60.0, samples: int = 1_000_000, seed: int = 42) -> Report:
    """Classical hidden-direction model against the Born conditional."""
    comp = comparison_report(Direction(0.0), Direction.from_degrees(delta_degrees), samples, seed)
    marginals = QueryResult(
        1,
        "spin_marginals",
        (("samples", samples),),
        (("p_plus_a", comp.p_plus_a), ("p_plus_b", comp.p_plus_b)),
    )
    comparison = QueryResult(
        2,
        "spin_comparison",
        (("delta_degrees", float(delta_degrees)), ("samples", samples)),
        (
            ("classical_estimate", comp.classical_estimate),
            ("classical_analytic", comp.classical_analytic),
            ("quantum", comp.quantum),
            ("gap", comp.gap),
        ),
    )
    return Report(
        engine_version=__version__,
        context="spin-demo",
        dimension=2,
        seed=seed,
        results=(marginals, comparison),
    )


def run_reconstruct_demo(dim: int = 3, seed: int = 7) -> Report:
    """Round-trip a seeded random density through the effect basis."""
    ic_effect_basis(dim)  # checks dim before the draw, and caches the family the query reads
    if seed < 0:
        raise InvalidSeed(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    raw = m @ m.conj().T
    rho = DensityOperator(raw / np.trace(raw).real)
    return run_scenario(Scenario("reconstruct-demo", dim, rho, (), (Query("reconstruct_check", {}),)), seed=seed)
