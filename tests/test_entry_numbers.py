"""Every number a caller passes the library ends in a report or an ``EngineError``.

An int beyond the float range (10**400) at each numeric argument of the
entry points that read a value, a vector or a table, and a negative seed at
each seeded function, must raise an ``EngineError`` subclass (or a
``TypeError``), never a bare ``OverflowError`` or numpy ``ValueError``. So
must a dimension above ``MAX_DIMENSION``, nested lists of unequal lengths
and an angle that is not finite, with numpy's ``RuntimeWarning`` an error.
An entry above 1e60 in size (1e308 is past what a product or norm can
square) is refused by the one range gate where arrays enter, with its
message and no ``RuntimeWarning`` first.
An int beyond Python's 4 300-digit int-to-string limit (10**5000) is one too,
and a message that names it gives its size in bits.

The tables above are the first rows of one table over every public callable
of ``qdecision`` that takes a number. Each row is fed NaN, +-inf, 1e61,
1e308, ints beyond the float range and any float above 1e60 in size, with
every warning an error: it returns, or raises an ``EngineError`` or a
``TypeError``. An array entry is refused at every such number, and a value
or image at every one at or above 1e300 / m in size.
"""

import inspect
import math
import warnings

import numpy as np
import pytest

import qdecision
from qdecision import (
    DecisionVariable,
    Direction,
    DensityOperator,
    DimensionMismatch,
    Effect,
    GPMSample,
    EngineError,
    HermitianOperator,
    InvalidSampleCount,
    InvalidSeed,
    InvariantViolation,
    LikelihoodTable,
    NonOrthonormalBasis,
    Projector,
    StateVector,
    UnitaryOperator,
    UnknownDataLabel,
    UnknownValue,
    apply_function,
    classical_conditional,
    classical_conditional_analytic,
    collapse,
    comparison_report,
    conjugate,
    event_probability,
    expectation_of_function,
    gpm_evaluate,
    hermitian_eig,
    ic_effect_basis,
    likelihood_effect,
    outcome_distribution,
    planar_projector,
    planar_state,
    projector_onto_span,
    quantum_conditional,
    sample_phi,
    sequential_probability,
    spin_component,
    sure_thing_check,
    variable_from_spectrum,
)
from qdecision.demos import run_reconstruct_demo, run_spin_demo
from qdecision.tolerances import MAX_DIMENSION

BEYOND_DIGITS = 10**5000  # 16 610 bits; str() of it raises ValueError
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


DIMENSIONED = {
    "ic_effect_basis": ic_effect_basis,
    "run_reconstruct_demo": lambda r: run_reconstruct_demo(r, 1),
}

RAGGED = {
    "StateVector": lambda: StateVector([[1, 0], [1]]),
    **{
        cls.__name__: (lambda cls=cls: cls([[1, 0], [1]]))
        for cls in (HermitianOperator, Effect, Projector, DensityOperator, UnitaryOperator)
    },
    "projector_onto_span": lambda: projector_onto_span([[1, 0], [[1], 0]]),
    "variable_from_spectrum groups": lambda: variable_from_spectrum("v", [0, 1], [[[1, [0]]], [[0, 1]]]),
}

NAMED_IN_THE_MESSAGE = {
    "ic_effect_basis": (ic_effect_basis, DimensionMismatch),
    "run_reconstruct_demo dim": (lambda n: run_reconstruct_demo(n, 1), DimensionMismatch),
    "value_index": (VAR.value_index, UnknownValue),
    "probability_of": (lambda n: outcome_distribution(PSI, VAR).probability_of(n), UnknownValue),
    "planar_state": (planar_state, InvariantViolation),
    "spin_component direction": (lambda n: spin_component(n, 0.3), InvariantViolation),
    "sample_phi count": (lambda n: sample_phi(n, 1), InvalidSampleCount),
    "sample_phi seed": (lambda n: sample_phi(10, -abs(n)), InvalidSeed),
    "run_reconstruct_demo seed": (lambda n: run_reconstruct_demo(3, -abs(n)), InvalidSeed),
    "GPMSample probability": (lambda n: GPMSample(ic_effect_basis(2)[0], n), InvariantViolation),
    "LikelihoodTable label": (lambda n: LikelihoodTable(VAR, {n: [1, 1]}), InvariantViolation),
    "LikelihoodTable label row length": (lambda n: LikelihoodTable(VAR, {n: [1]}), DimensionMismatch),
    "LikelihoodTable label range": (lambda n: LikelihoodTable(VAR, {n: [2, -1]}), InvariantViolation),
    "likelihood_effect label": (lambda n: likelihood_effect(LikelihoodTable(VAR, {"z": [1, 1]}), n), UnknownDataLabel),
    "apply_function image": (lambda n: apply_function(VAR, lambda u: n), InvariantViolation),
}

ANGLES = {
    "spin_component phi": lambda x: spin_component(0.3, x),
    "spin_component phi array": lambda x: spin_component(0.3, [x, 0.0]),
    "planar_state": planar_state,
    "planar_projector": planar_projector,
}

HUGE_ENTRY = {
    "StateVector": (
        lambda: StateVector([1e308, 0]),
        InvariantViolation,
        "state vector contains entries above 1e+60 in size",
    ),
    "Projector": (
        lambda: Projector([[1e308, 0], [0, 0]]),
        InvariantViolation,
        "Projector contains entries above 1e+60 in size",
    ),
    "UnitaryOperator": (
        lambda: UnitaryOperator([[1e308, 0], [0, 1]]),
        InvariantViolation,
        "matrix contains entries above 1e+60 in size",
    ),
    "variable_from_spectrum": (
        lambda: variable_from_spectrum("v", [0, 1], [[[1e308, 0]], [[0, 1]]]),
        NonOrthonormalBasis,
        "eigenbasis is not orthonormal: ||V^dag V - I||_F = nan",
    ),
    "variable_from_spectrum 1e100": (
        lambda: variable_from_spectrum("v", [0, 1], [[[1e100, 0]], [[0, 1]]]),
        NonOrthonormalBasis,
        "eigenbasis is not orthonormal: ||V^dag V - I||_F = nan",
    ),
    "HermitianOperator": (
        lambda: HermitianOperator([[0, 1e308], [-1e308, 0]]),
        InvariantViolation,
        "HermitianOperator contains entries above 1e+60 in size",
    ),
    "DensityOperator": (
        lambda: DensityOperator([[1e308, 0], [0, 1e308]]),
        InvariantViolation,
        "DensityOperator contains entries above 1e+60 in size",
    ),
    "projector_onto_span": (
        lambda: projector_onto_span([[1e308, 1e308]]),
        InvariantViolation,
        "vectors to project onto contain entries above 1e+60 in size",
    ),
    "hermitian_eig": (
        lambda: hermitian_eig([[1e308, 1e308], [1e308, 1e308]]),
        InvariantViolation,
        "HermitianOperator contains entries above 1e+60 in size",
    ),
    "StateVector 1e154": (
        lambda: StateVector([1e154, 0]),
        InvariantViolation,
        "state vector contains entries above 1e+60 in size",
    ),
}


@pytest.mark.parametrize("call", BEYOND_FLOAT.values(), ids=BEYOND_FLOAT)
@pytest.mark.parametrize("big", [10**400, -(10**400), BEYOND_DIGITS], ids=["plus", "minus", "beyond_digits"])
def test_an_int_beyond_the_float_range_is_an_engine_error(call, big):
    with pytest.raises((EngineError, TypeError)):
        call(big)


@pytest.mark.parametrize("call", SEEDED.values(), ids=SEEDED)
def test_a_negative_seed_is_an_engine_error(call):
    with pytest.raises(InvalidSeed, match="^seed must be a non-negative integer, got -1$"):
        call(-1)


@pytest.mark.parametrize("call", DIMENSIONED.values(), ids=DIMENSIONED)
@pytest.mark.parametrize("r", [MAX_DIMENSION + 1, 10**400], ids=["max+1", "beyond_float"])
def test_a_dimension_above_the_bound_is_refused_before_any_allocation(call, r):
    with pytest.raises(DimensionMismatch, match=f"^dimension must be at most {MAX_DIMENSION}, got {r}$"):
        call(r)


@pytest.mark.parametrize("call, error", NAMED_IN_THE_MESSAGE.values(), ids=NAMED_IN_THE_MESSAGE)
@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
def test_a_message_gives_an_int_beyond_the_digit_limit_by_its_size(call, error, sign):
    with pytest.raises(error, match=r"\b(an|a negative) int of 16610 bits\b"):
        call(sign * BEYOND_DIGITS)


@pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["plus", "minus"])
def test_apply_function_names_an_image_beyond_the_float_range_and_its_value(big):
    with pytest.raises(InvariantViolation) as exc:
        apply_function(VAR, lambda u: big)
    assert str(exc.value) == f"f('v') must be finite, got f(0.0) = {big!r}"


@pytest.mark.parametrize("call", RAGGED.values(), ids=RAGGED)
def test_nested_lists_of_unequal_lengths_are_a_dimension_mismatch(call):
    with pytest.raises(DimensionMismatch, match="^nested lists of unequal lengths do not form an array$"):
        call()


def test_a_malformed_string_is_still_numpys_value_error():
    with pytest.raises(ValueError, match="malformed string"):
        StateVector(["1", "x"])


@pytest.mark.parametrize("call", ANGLES.values(), ids=ANGLES)
@pytest.mark.parametrize(
    "x", [math.inf, -math.inf, math.nan, 10**400, -(10**400), BEYOND_DIGITS], ids=["inf", "-inf", "nan", "+big", "-big", "+digits"]
)
def test_an_angle_that_is_not_finite_is_refused_before_cos(call, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvariantViolation, match="is not finite$"):
            call(x)


@pytest.mark.parametrize("phi", [0.3, np.float64(0.3), 1, np.array(0.3), [0.3, 1.9]], ids=repr)
def test_a_finite_phi_still_gives_its_spin(phi):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = spin_component(0.3, phi)
    assert np.array_equal(got, np.where(np.cos(0.3 - np.asarray(phi, dtype=float)) >= 0.0, 1, -1))


@pytest.mark.parametrize("call, error, message", HUGE_ENTRY.values(), ids=HUGE_ENTRY)
def test_an_entry_of_1e308_is_the_constructors_error_with_no_runtime_warning(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error) as exc:
            call()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# one table over every public callable that takes a number

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _matrix(x):
    return [[x, 0], [0, 1]]


# an array entry: the range gate refuses every number it is fed here
ENTRIES = {
    "StateVector": lambda x: StateVector([x, 1]),
    **{cls.__name__: (lambda x, cls=cls: cls(_matrix(x))) for cls in (HermitianOperator, Effect, Projector, DensityOperator)},
    "UnitaryOperator": lambda x: UnitaryOperator(_matrix(x)),
    "projector_onto_span": lambda x: projector_onto_span([[x, 1]]),
    "variable_from_spectrum groups": lambda x: variable_from_spectrum("v", [0, 1], [[[x, 0]], [[0, 1]]]),
    "hermitian_eig": lambda x: hermitian_eig(_matrix(x)),
    "event_probability effect": lambda x: event_probability(PSI, _matrix(x)),
    "gpm_evaluate effect": lambda x: gpm_evaluate(PSI, _matrix(x)),
    "GPMSample effect": lambda x: GPMSample(_matrix(x), 0.5),
    "conjugate unitary": lambda x: conjugate(VAR, _matrix(x)),
}

# a value or image of a variable of two values, the other 0: refused at and above 1e300 / 2 in size, taken below
VALUES = {
    "DecisionVariable values": lambda x: DecisionVariable("v", [-abs(x), 0], VAR.eigenprojectors),
    "variable_from_spectrum values": BEYOND_FLOAT["variable_from_spectrum values"],
    "expectation_of_function image": lambda x: expectation_of_function(PSI, VAR, lambda u: x if u else 0.0),
    "expectation_of_function table value": BEYOND_FLOAT["expectation_of_function table value"],
}

NUMBERS = {
    **BEYOND_FLOAT,
    **{f"{name} seed": call for name, call in SEEDED.items()},
    **{f"{name} dimension": call for name, call in DIMENSIONED.items()},
    **{name: call for name, (call, _) in NAMED_IN_THE_MESSAGE.items()},
    **ANGLES,
    **ENTRIES,
    **VALUES,
    "Direction": Direction,
    "classical_conditional angle": lambda x: classical_conditional(x, 0.3, 10, 1),
    "classical_conditional_analytic": lambda x: classical_conditional_analytic(0.3, x),
    "quantum_conditional": lambda x: quantum_conditional(x, 0.3),
    "comparison_report count": lambda x: comparison_report(0.1, 0.3, x, 1),
    "run_spin_demo delta": lambda x: run_spin_demo(x, 10, 1),
    "sure_thing_check threshold": lambda x: sure_thing_check(StateVector([0.6, 0.8]), VAR, VAR.eigenprojectors[0], x),
}

# public callables that take no number of their own, each with the reason
NO_NUMBERS = {
    **dict.fromkeys(
        ["ConjunctionReport", "DensityReconstruction", "OutcomeDistribution", "Query", "QueryResult", "Report",
         "Scenario", "SpinComparison", "SureThingReport", "TotalProbabilityReport"],
        "a record of results the engine computed, checked by nothing",
    ),
    **dict.fromkeys(
        ["are_complementary", "collapse_onto", "conjunction_report", "emit_report", "expectation", "is_maximal",
         "is_one_to_one_related", "outcome_distribution", "reconstruct_density", "run_scenario",
         "scenario_to_document", "sequential_event_probability", "total_probability_report", "transition_probability"],
        "takes only values the library built, whose numbers passed their gate",
    ),
    "parse_scenario": "takes a document: its numbers are the malformed corpus's rows, refused as a ScenarioError",
    "format_number": "formats the engine's own results for a report, which hold no number outside the gate",
}

OUTSIDE_THE_GATE = [math.nan, math.inf, -math.inf, 1e61, -1e61, 1e308, 10**400, -(10**400)]


def _public_callables() -> set[str]:
    return {
        name for name, obj in vars(qdecision).items()
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
        and not (inspect.isclass(obj) and issubclass(obj, BaseException))
    }


def test_every_public_callable_is_a_row_or_takes_no_number():
    rows = {name.split()[0] for name in NUMBERS}
    assert _public_callables() - set(NO_NUMBERS) <= rows, sorted(_public_callables() - set(NO_NUMBERS) - rows)
    assert not set(NO_NUMBERS) & rows and set(NO_NUMBERS) <= _public_callables()


def _outcome(call, x) -> bool:
    """True when ``call(x)`` raised an ``EngineError`` or a ``TypeError``, False when it returned; any other
    exception, a ``RuntimeWarning`` among them, propagates."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(x)
        except (EngineError, TypeError):
            return True
    return False


@hypothesis.settings(max_examples=800, deadline=None)
@hypothesis.given(
    row=st.sampled_from(sorted(NUMBERS)),
    x=st.one_of(st.sampled_from(OUTSIDE_THE_GATE), st.floats().filter(lambda x: not abs(x) <= 1e60)),
)
def test_a_number_outside_the_gate_returns_or_is_an_engine_error(row, x):
    refused = _outcome(NUMBERS[row], x)
    if row in ENTRIES:
        assert refused, (row, x)
    if row in VALUES:
        assert refused == (not abs(x) < 1e300 / 2), (row, x)  # nan is not below it either


@pytest.mark.parametrize("row", ENTRIES)
@pytest.mark.parametrize("x", OUTSIDE_THE_GATE, ids=repr)
def test_every_array_entry_refuses_every_number_outside_the_gate(row, x):
    assert _outcome(ENTRIES[row], x)
