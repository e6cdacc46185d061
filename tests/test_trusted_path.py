"""Values the engine builds without re-checking pass the public checks too."""

import numpy as np
import pytest

from qdecision import (
    DecisionVariable,
    Effect,
    Projector,
    StateVector,
    collapse,
    event_probability,
    ic_effect_basis,
    projector_onto_span,
    variable_from_spectrum,
)

from conftest import distinct_values, random_state, random_unitary

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _random_groups(r: int, rng: np.random.Generator) -> list[list[np.ndarray]]:
    """Columns of a random unitary, cut into groups of random sizes."""
    u = random_unitary(r, rng)
    cuts = sorted(rng.choice(np.arange(1, r), size=int(rng.integers(0, r)), replace=False))
    bounds = [0, *cuts, r]
    return [[u[:, k] for k in range(a, b)] for a, b in zip(bounds, bounds[1:])]


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(r=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_spectrum_variable_matches_the_public_constructors(r, seed):
    rng = np.random.default_rng(seed)
    groups = _random_groups(r, rng)
    values = distinct_values(len(groups), rng)[::-1] if len(groups) > 1 else [0.5]
    v = variable_from_spectrum("v", values, groups)

    order = sorted(range(len(values)), key=lambda j: values[j])
    for p, j in zip(v.eigenprojectors, order):
        public = projector_onto_span(groups[j])
        assert np.array_equal(p.matrix, public.matrix)
        assert p.rank == public.rank == len(groups[j])

    checked = DecisionVariable(v.name, v.values, v.eigenprojectors)
    assert np.array_equal(checked.operator.matrix, v.operator.matrix)

    psi = random_state(r, rng)
    for u, p in zip(v.values, v.eigenprojectors):
        if event_probability(psi, p) > 1e-6:
            collapsed = collapse(psi, v, u)
            assert np.array_equal(StateVector(collapsed.amplitudes).amplitudes, collapsed.amplitudes)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_ic_effects_pass_the_public_effect_check(r):
    for f in ic_effect_basis(r):
        assert np.array_equal(Effect(f.matrix).matrix, f.matrix)
        assert Projector(f.matrix).rank == 1
