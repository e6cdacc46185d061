"""Identities of sequential projective (Lüders) measurement, over vectors and densities.

- The QQ equality p(Ay, Bn) + p(An, By) = p(By, An) + p(Bn, Ay) holds for any
  state and any two binary questions (Wang & Busemeyer, Topics in Cognitive
  Science 5(4), 2013).
- Sum_j tr(P_j rho P_j) = 1 for every partition {P_j} of the identity.
- The outcome distribution of every validated variable is a probability
  distribution, and its eigenprojectors resolve the identity.
- E[f(v)] = sum_j f(u_j) p_j: the sum over v's declared values equals, bit
  for bit, the sum over the probabilities ``outcome_distribution`` returns
  whenever no image can overflow the operator sum_j f(u_j) P_j, equals the
  Born rule on f(A) computed by diagonalizing A, and equals the expectation
  of the variable f(v) (Helland's "function of a variable").
- Reciprocity: p(B|A) = p(A|B) for rank-one events A and B.
- A sure-thing conditional p(C | j), the ratio of a partition term to p_j, is
  the probability of C in the Lüders-collapsed state.
- Events that commute with each other and with a binary partition show no
  order effect, no interference and no sure-thing violation.
- tr(rho F) = vdot(rho, F) for Hermitian rho and F: the Born rule on a density
  as the engine computes it equals trace(rho @ F).

Projectors have any rank, so degenerate eigenspaces are covered.
"""

import numpy as np
import pytest

from qdecision import (
    DensityOperator,
    Effect,
    InvariantViolation,
    Projector,
    StateVector,
    apply_function,
    collapse_onto,
    conjunction_report,
    event_probability,
    expectation,
    expectation_of_function,
    gpm_evaluate,
    outcome_distribution,
    sequential_event_probability,
    sequential_probability,
    sure_thing_check,
    tolerances,
    total_probability_report,
    variable_from_spectrum,
)
from qdecision import variables
from qdecision.variables import round_value

from conftest import commuting_setup, random_state, random_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

IDENTITY_TOL = 1e-12
PROB_SUM_TOL = 1e-10  # |sum_j p_j - 1| for an outcome distribution


def _state(kind: str, d: int, rank: int, rng: np.random.Generator):
    if kind == "vector":
        return random_state(d, rng)
    m = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = m @ m.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def _variable(name: str, sizes: list[int], rng: np.random.Generator, values=None):
    """A variable whose eigenspaces have the given dimensions, in a random basis;
    its values are 0, 1, ... unless given."""
    u = random_unitary(sum(sizes), rng)
    edges = np.cumsum([0, *sizes])
    groups = [[u[:, j] for j in range(lo, hi)] for lo, hi in zip(edges[:-1], edges[1:])]
    return variable_from_spectrum(name, values or [float(j) for j in range(len(sizes))], groups)


def _sizes(data, d: int) -> list[int]:
    """Eigenspace dimensions summing to d, any of them above 1."""
    cuts = data.draw(st.sets(st.integers(1, d - 1)), label="eigenspace cuts")
    edges = [0, *sorted(cuts), d]
    return [hi - lo for lo, hi in zip(edges[:-1], edges[1:])]


def _state_and_dimension(data, top: int = 7):
    d = data.draw(st.integers(2, top), label="d")
    kind = data.draw(st.sampled_from(["vector", "density"]), label="kind")
    rank = data.draw(st.integers(1, d), label="density rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return d, _state(kind, d, rank, rng), rng


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_qq_equality(data):
    d, state, rng = _state_and_dimension(data)
    rank_a = data.draw(st.integers(1, d - 1), label="rank of A yes")
    rank_b = data.draw(st.integers(1, d - 1), label="rank of B yes")
    a = _variable("A", [d - rank_a, rank_a], rng)  # value 1.0 is yes, 0.0 is no
    b = _variable("B", [d - rank_b, rank_b], rng)

    def p(first, second):
        return sequential_probability(state, [first, second])

    yes_a, no_a, yes_b, no_b = (a, 1.0), (a, 0.0), (b, 1.0), (b, 0.0)
    lhs = p(yes_a, no_b) + p(no_a, yes_b)
    rhs = p(yes_b, no_a) + p(no_b, yes_a)
    assert abs(lhs - rhs) <= IDENTITY_TOL


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_luders_partition_preserves_total_probability(data):
    d, state, rng = _state_and_dimension(data)
    v = _variable("P", _sizes(data, d), rng)
    total = sum(sequential_event_probability(state, [p]) for p in v.eigenprojectors)
    assert abs(total - 1.0) <= IDENTITY_TOL


def _values(n: int, rng: np.random.Generator) -> list[float]:
    """n strictly increasing values in about [-3, 3], at least 0.05 apart."""
    return [float(x) for x in -3.0 + np.cumsum(rng.uniform(0.05, 6.0 / n, size=n))]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_outcome_distribution_is_a_probability_distribution(data):
    d, state, rng = _state_and_dimension(data)
    sizes = _sizes(data, d)
    v = _variable("v", sizes, rng, _values(len(sizes), rng))
    dist = outcome_distribution(state, v)
    assert dist.values == v.values
    assert len(dist.probabilities) == len(v.values)
    assert min(dist.probabilities) >= -tolerances.PROB_FLOOR
    assert abs(sum(dist.probabilities) - 1.0) <= PROB_SUM_TOL
    resolution = sum(p.matrix for p in v.eigenprojectors) - np.eye(d)
    assert np.linalg.norm(resolution, "fro") <= tolerances.ORTHONORMALITY_TOL


FUNCTIONS = {
    "square": lambda u: u * u,
    "cos": np.cos,
    "exp": np.exp,
    "constant": lambda u: 2.5,
    "sign": lambda u: 1.0 if u > 0 else -1.0,
}


def _born(state, m: np.ndarray) -> float:
    if isinstance(state, StateVector):
        return float(np.vdot(state.amplitudes, m @ state.amplitudes).real)
    return float(np.trace(state.matrix @ m).real)


def _spectral_function(a: np.ndarray, f) -> np.ndarray:
    """f(A) = sum_i f(lambda_i) v_i v_i^dag from a fresh eigendecomposition of A."""
    w, vecs = np.linalg.eigh(a)
    return (vecs * [f(float(x)) for x in w]) @ vecs.conj().T


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_expectation_of_function_is_the_spectral_sum(data):
    d, state, rng = _state_and_dimension(data)
    sizes = _sizes(data, d)
    v = _variable("v", sizes, rng, _values(len(sizes), rng))
    f = FUNCTIONS[data.draw(st.sampled_from(sorted(FUNCTIONS)), label="f")]
    got = expectation_of_function(state, v, f)

    dist = outcome_distribution(state, v)
    # these images are bounded, so the engine sums over the same Born probabilities: the same bits
    assert _bits(got) == _bits(sum(float(f(u)) * p for u, p in zip(dist.values, dist.probabilities)))
    # the route through a fresh eigendecomposition of A, used before the spectral sum
    assert abs(got - _born(state, _spectral_function(v.operator.matrix, f))) <= IDENTITY_TOL
    # the variable f(v) carries its values rounded to VALUE_SIG_DIGITS
    rounded = expectation_of_function(state, v, lambda u: round_value(f(u)))
    assert abs(rounded - expectation(state, apply_function(v, f))) <= IDENTITY_TOL


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


# image scales on both sides of the bound 1e300 / m for m = 2 .. 32 values
SCALES = [1.0, 1e-300, 1e150, 1e298, 3e298, 1e299]


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(data=st.data())
def test_bounded_images_give_the_outcome_distribution_sum_bit_for_bit(data):
    """``expectation_of_function`` on ``_bounded`` images is sum_j f(u_j) p_j over ``outcome_distribution``'s
    probabilities, by ``uint64`` view; other finite images are refused."""
    d, state, rng = _state_and_dimension(data, top=32)
    sizes = [1] * d if data.draw(st.booleans(), label="maximal") else _sizes(data, d)
    v = _variable("v", sizes, rng, _values(len(sizes), rng))
    g = FUNCTIONS[data.draw(st.sampled_from(sorted(FUNCTIONS)), label="f")]
    scale = data.draw(st.sampled_from(SCALES), label="scale")
    images = [float(g(u)) * scale for u in v.values]
    table = dict(zip(v.values, images))
    f = table if data.draw(st.booleans(), label="table") else table.__getitem__

    if variables._bounded(images, len(images)):
        dist = outcome_distribution(state, v)
        assert _bits(expectation_of_function(state, v, f)) == _bits(sum(x * p for x, p in zip(images, dist.probabilities)))
    else:
        with pytest.raises(InvariantViolation, match="finite operator"):
            expectation_of_function(state, v, f)


def _rank_one(d: int, rng: np.random.Generator) -> Projector:
    a = random_state(d, rng).amplitudes
    return Projector(np.outer(a, a.conj()))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_rank_one_conditioning_is_reciprocal(data):
    d, state, rng = _state_and_dimension(data, top=8)
    a, b = _rank_one(d, rng), _rank_one(d, rng)
    b_given_a = event_probability(collapse_onto(state, a), b)
    a_given_b = event_probability(collapse_onto(state, b), a)
    assert abs(b_given_a - a_given_b) <= IDENTITY_TOL


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_sure_thing_conditionals_are_the_collapsed_probabilities(data):
    d, state, rng = _state_and_dimension(data, top=8)
    rank = data.draw(st.integers(1, d - 1), label="rank of the condition's upper value")
    condition = _variable("C", [d - rank, rank], rng)
    choice = _variable("A", _sizes(data, d), rng)
    proj_c = choice.eigenprojectors[data.draw(st.integers(0, len(choice.values) - 1), label="choice")]
    report = sure_thing_check(state, condition, proj_c)
    for conditional, proj in zip(report.conditionals, condition.eigenprojectors):
        assert abs(conditional - event_probability(collapse_onto(state, proj), proj_c)) <= IDENTITY_TOL


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_commuting_events_behave_classically(data):
    d, state, rng = _state_and_dimension(data, top=8)
    proj_a, proj_b, condition = commuting_setup(d, rng)
    threshold = data.draw(st.floats(0.0, 1.0), label="threshold")
    assert conjunction_report(state, proj_a, proj_b).order_asymmetry <= IDENTITY_TOL
    assert abs(total_probability_report(state, condition, proj_a).interference) <= IDENTITY_TOL
    assert not sure_thing_check(state, condition, proj_a, threshold).violation_flag


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_born_rule_on_a_density_is_the_trace_of_the_product(data):
    d = data.draw(st.integers(2, 32), label="d")
    rank = data.draw(st.integers(1, d), label="density rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rho = _state("density", d, rank, rng)
    u = random_unitary(d, rng)
    m = (u * rng.uniform(0.0, 1.0, d)) @ u.conj().T
    effect = Effect((m + m.conj().T) / 2.0)
    assert abs(gpm_evaluate(rho, effect) - np.trace(rho.matrix @ effect.matrix).real) <= 1e-14
