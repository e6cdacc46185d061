"""The reports reuse each projected state, and a value is found by one exact probe, with nothing changed.

Every field of the conjunction, total-probability and sure-thing reports
must equal, bit for bit, what ``event_probability`` and
``sequential_event_probability`` give for the same events, on vectors and
densities of dimension 2 to 16. ``value_index`` (and the lookups that share
it) must give the answer or the error of the rounding lookup for every kind
of number a caller may pass.
"""

import dataclasses
import math

import numpy as np
import pytest

from qdecision import (
    ConjunctionReport,
    DensityOperator,
    Projector,
    SureThingReport,
    TotalProbabilityReport,
    UnknownValue,
    conjunction_report,
    event_probability,
    expectation_of_function,
    outcome_distribution,
    sequential_event_probability,
    sure_thing_check,
    total_probability_report,
    variable_from_spectrum,
)
from qdecision.tolerances import PROB_FLOOR
from qdecision.variables import round_value

from conftest import distinct_values, random_density, random_state, random_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _bits(x) -> list[int]:
    """The uint64 view of a float or of each float of a tuple."""
    return np.asarray(x, dtype=float).view(np.uint64).ravel().tolist()


def _projector(r: int, rng: np.random.Generator) -> Projector:
    u = random_unitary(r, rng)
    cols = u[:, : int(rng.integers(1, r))]
    return Projector(cols @ cols.conj().T)


def _variable(r: int, rng: np.random.Generator, parts: int):
    u = random_unitary(r, rng)
    cuts = np.sort(rng.choice(np.arange(1, r), size=parts - 1, replace=False))
    groups = [[u[:, j] for j in block] for block in np.split(np.arange(r), cuts)]
    return variable_from_spectrum("v", distinct_values(parts, rng), groups)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(r=st.integers(2, 16), seed=st.integers(0, 2**32 - 1), density=st.booleans())
def test_every_report_field_is_the_engine_probability_bit_for_bit(r, seed, density):
    rng = np.random.default_rng(seed)
    psi = DensityOperator(random_density(r, rng)) if density else random_state(r, rng)
    proj_a, proj_b = _projector(r, rng), _projector(r, rng)
    partition = _variable(r, rng, int(rng.integers(2, r + 1)))
    condition = _variable(r, rng, 2)

    def ep(p):
        return event_probability(psi, p)

    def sep(*ps):
        return sequential_event_probability(psi, list(ps))

    conj = conjunction_report(psi, proj_a, proj_b)
    p_ab, p_ba = sep(proj_a, proj_b), sep(proj_b, proj_a)
    assert _bits([conj.p_a, conj.p_b, conj.p_a_then_b, conj.p_b_then_a, conj.order_asymmetry]) == _bits(
        [ep(proj_a), ep(proj_b), p_ab, p_ba, abs(p_ab - p_ba)]
    )
    assert conj.conjunction_flag is (p_ab > ep(proj_b) + PROB_FLOOR)

    total = total_probability_report(psi, partition, proj_a)
    terms = tuple(sep(p, proj_a) for p in partition.eigenprojectors)
    assert _bits(total.partition_terms) == _bits(terms)
    assert _bits([total.p_direct, total.p_via_partition, total.interference]) == _bits(
        [ep(proj_a), sum(terms), ep(proj_a) - sum(terms)]
    )
    assert total.partition_values == partition.values

    if min(map(ep, condition.eigenprojectors)) <= 1e-12:
        return
    sure = sure_thing_check(psi, condition, proj_b, 0.5)
    terms = [sep(p, proj_b) for p in condition.eigenprojectors]
    conditionals = tuple(t / ep(p) for t, p in zip(terms, condition.eigenprojectors))
    assert _bits(sure.conditionals) == _bits(conditionals)
    assert _bits([sure.p_unconditional, sure.interference]) == _bits([ep(proj_b), ep(proj_b) - sum(terms)])
    assert sure.violation_flag is (min(conditionals) > 0.5 and ep(proj_b) <= 0.5)
    assert sure.condition_values == condition.values


VALUES = [-2.5, 0.0, 0.1, 1.0 / 3.0, 7.0]
VAR = variable_from_spectrum("v", VALUES, [[np.eye(5)[j]] for j in range(5)])
ASKED = [
    *VALUES,
    *(float(np.nextafter(u, np.inf)) for u in VALUES),  # 17-digit neighbours, which round onto the value
    0.30000000000000004, 1.0 / 3.0 + 1e-9, -0.0, -(1.0 / 3.0),
    0, 7, -3, True, np.float64(0.1), np.float64(1.0 / 3.0), np.array(7.0), np.array(0.2),
    math.nan, math.inf, 10**400, -(10**400),
]
RHO = DensityOperator(np.diag(np.arange(1.0, 6.0)) / 15.0)
DIST = outcome_distribution(RHO, VAR)


@pytest.mark.parametrize("value", ASKED, ids=lambda v: repr(v)[:24])
def test_value_lookups_give_the_answer_or_error_of_the_rounding_lookup(value):
    want = VAR._index.get(round_value(value))
    if want is None:
        with pytest.raises(UnknownValue):
            VAR.value_index(value)
        with pytest.raises(UnknownValue):
            DIST.probability_of(value)
    else:
        assert VAR.value_index(value) == want
        assert DIST.probability_of(value) == DIST.probabilities[want]
    if not isinstance(value, np.ndarray):  # a table key must be hashable
        # f = 1 on the value asked for, 0 on every other declared value; a key that is no value is ignored
        table = {value: 1.0, **{u: 0.0 for j, u in enumerate(VALUES) if j != want}}
        expected = 0.0 if want is None else DIST.probabilities[want]
        assert expectation_of_function(RHO, VAR, table) == pytest.approx(expected, abs=1e-15)


RECORDS = {
    ConjunctionReport: (0.25, 0.5, 0.125, 0.0625, False, 0.0625),
    TotalProbabilityReport: (0.5, 0.375, 0.125, (0.0, 1.0), (0.25, 0.125)),
    SureThingReport: ((0.0, 1.0), (0.75, 0.625), 0.375, True, -0.25),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_report_record_is_still_a_frozen_dataclass_built_by_keyword_or_position(cls):
    values = RECORDS[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    by_keyword, by_position = cls(**dict(zip(names, values))), cls(*values)
    assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
    assert vars(by_keyword) == dict(zip(names, values))
    assert repr(by_keyword) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    assert by_keyword != cls(*values[:-1], 1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(by_keyword, names[0], 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(by_keyword, names[0])
    with pytest.raises(TypeError):
        cls(*values[:-1])
