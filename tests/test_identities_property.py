"""Identities of sequential projective (Lüders) measurement, over vectors and densities.

- The QQ equality p(Ay, Bn) + p(An, By) = p(By, An) + p(Bn, Ay) holds for any
  state and any two binary questions (Wang & Busemeyer, Topics in Cognitive
  Science 5(4), 2013).
- Sum_j tr(P_j rho P_j) = 1 for every partition {P_j} of the identity.

Projectors have any rank, so degenerate eigenspaces are covered.
"""

import numpy as np
import pytest

from qdecision import DensityOperator, sequential_event_probability, sequential_probability, variable_from_spectrum

from conftest import random_state, random_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

IDENTITY_TOL = 1e-12


def _state(kind: str, d: int, rank: int, rng: np.random.Generator):
    if kind == "vector":
        return random_state(d, rng)
    m = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = m @ m.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def _variable(name: str, sizes: list[int], rng: np.random.Generator):
    """A variable whose eigenspaces have the given dimensions, in a random basis."""
    u = random_unitary(sum(sizes), rng)
    edges = np.cumsum([0, *sizes])
    groups = [[u[:, j] for j in range(lo, hi)] for lo, hi in zip(edges[:-1], edges[1:])]
    return variable_from_spectrum(name, [float(j) for j in range(len(sizes))], groups)


def _state_and_dimension(data):
    d = data.draw(st.integers(2, 7), label="d")
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
    cuts = data.draw(st.sets(st.integers(1, d - 1)), label="partition cuts")
    edges = [0, *sorted(cuts), d]
    v = _variable("P", [hi - lo for lo, hi in zip(edges[:-1], edges[1:])], rng)
    total = sum(sequential_event_probability(state, [p]) for p in v.eigenprojectors)
    assert abs(total - 1.0) <= IDENTITY_TOL
