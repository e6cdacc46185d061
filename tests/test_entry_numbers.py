"""Every number a caller passes the library ends in a report or an ``EngineError``.

An int beyond the float range (10**400) at each numeric argument of the
entry points that read a value, a vector or a table, and a negative seed at
each seeded function, must raise an ``EngineError`` subclass (or a
``TypeError``), never a bare ``OverflowError`` or numpy ``ValueError``.
"""

import pytest

from qdecision import (
    DecisionVariable,
    EngineError,
    InvalidSeed,
    LikelihoodTable,
    StateVector,
    apply_function,
    classical_conditional,
    collapse,
    comparison_report,
    expectation_of_function,
    outcome_distribution,
    projector_onto_span,
    sample_phi,
    sequential_probability,
    variable_from_spectrum,
)
from qdecision.demos import run_reconstruct_demo, run_spin_demo

PSI = StateVector([1.0, 0.0])
VAR = variable_from_spectrum("v", [0, 1], [[[1, 0]], [[0, 1]]])

BEYOND_FLOAT = {
    "projector_onto_span": lambda big: projector_onto_span([[big, 0]]),
    "variable_from_spectrum groups": lambda big: variable_from_spectrum("v", [0, 1], [[[big, 0]], [[0, 1]]]),
    "variable_from_spectrum values": lambda big: variable_from_spectrum("v", [0, big], [[[1, 0]], [[0, 1]]]),
    "DecisionVariable values": lambda big: DecisionVariable("v", [0, big], VAR.eigenprojectors),
    "value_index": lambda big: VAR.value_index(big),
    "collapse": lambda big: collapse(PSI, VAR, big),
    "probability_of": lambda big: outcome_distribution(PSI, VAR).probability_of(big),
    "sequential_probability": lambda big: sequential_probability(PSI, [(VAR, big)]),
    "expectation_of_function image": lambda big: expectation_of_function(PSI, VAR, lambda u: big),
    "expectation_of_function table value": lambda big: expectation_of_function(PSI, VAR, {0: big, 1: 0}),
    "expectation_of_function table key": lambda big: expectation_of_function(PSI, VAR, {big: 0, 1: 0}),
    "LikelihoodTable rows": lambda big: LikelihoodTable(VAR, {"z": [big, 0], "w": [0, 1]}),
    "apply_function images": lambda big: apply_function(VAR, lambda u: big),
}

SEEDED = {
    "sample_phi": lambda seed: sample_phi(10, seed),
    "comparison_report": lambda seed: comparison_report(0, 1, 10, seed),
    "classical_conditional": lambda seed: classical_conditional(0, 1, 10, seed),
    "run_spin_demo": lambda seed: run_spin_demo(60.0, 10, seed),
    "run_reconstruct_demo": lambda seed: run_reconstruct_demo(3, seed),
}


@pytest.mark.parametrize("call", BEYOND_FLOAT.values(), ids=BEYOND_FLOAT)
@pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["plus", "minus"])
def test_an_int_beyond_the_float_range_is_an_engine_error(call, big):
    with pytest.raises((EngineError, TypeError)):
        call(big)


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
def test_a_negative_seed_is_an_engine_error(call):
    with pytest.raises(InvalidSeed, match="^seed must be a non-negative integer, got -1$"):
        call(-1)
