"""Built-in demonstrations for the command line.

The medical demo is a full scenario document run through the normal
parse/run path; the spin and reconstruction demos assemble reports
directly from their modules.
"""

from __future__ import annotations

import numpy as np

from ._version import __version__
from .engine import ic_effect_basis
from .errors import DegenerateConditioning
from .linalg import DensityOperator
from .report import QueryResult, Report
from .scenario import _roundtrip, parse_scenario, run_scenario
from .spin import Direction, _comparison, _plus, sample_phi

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


def run_medical_demo(angle_a: float = 40.0, angle_b: float = 70.0, seed: int = 0) -> Report:
    return run_scenario(parse_scenario(medical_document(angle_a, angle_b)), seed=seed)


def run_spin_demo(delta_degrees: float = 60.0, samples: int = 1_000_000, seed: int = 42) -> Report:
    """Classical hidden-direction model against the Born conditional."""
    if samples < 1:
        raise DegenerateConditioning(f"the spin demo needs at least one sample, got {samples}")
    a = Direction(0.0)
    b = Direction.from_degrees(delta_degrees)
    phi = sample_phi(samples, seed)
    plus_a, plus_b = _plus(a, phi), _plus(b, phi)
    comp = _comparison(a, b, plus_a, plus_b)
    marginals = QueryResult(
        1,
        "spin_marginals",
        (("samples", samples),),
        (
            ("p_plus_a", float(np.count_nonzero(plus_a) / samples)),
            ("p_plus_b", float(np.count_nonzero(plus_b) / samples)),
        ),
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
    effects = ic_effect_basis(dim)  # first: it rejects dim < 2 before any draw
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    raw = m @ m.conj().T
    outputs, flags = _roundtrip(DensityOperator(raw / np.trace(raw).real), effects)
    block = QueryResult(1, "reconstruct_check", (("effect_count", len(effects)),), tuple(outputs), flags)
    return Report(
        engine_version=__version__,
        context="reconstruct-demo",
        dimension=dim,
        seed=seed,
        results=(block,),
    )
