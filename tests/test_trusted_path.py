"""Values the engine builds without re-checking pass the public checks too."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import qdecision
from qdecision import (
    DecisionVariable,
    DensityOperator,
    Effect,
    Projector,
    StateVector,
    collapse,
    event_probability,
    ic_effect_basis,
    projector_onto_span,
    variable_from_spectrum,
)
from qdecision import tolerances as tol
from qdecision.linalg import _Immutable

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


def test_one_unchecked_constructor_serves_every_type():
    """``_Immutable._trusted`` is the package's only unchecked constructor: no class defines one of its own."""
    modules = [importlib.import_module(f"qdecision.{m.name}") for m in pkgutil.iter_modules(qdecision.__path__)]
    classes = {c for m in modules for _, c in inspect.getmembers(m, inspect.isclass) if c.__module__.startswith("qdecision")}
    assert _Immutable in classes and len(classes) > 10
    assert [c for c in classes if "_trusted" in vars(c)] == [_Immutable]


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1), slack=st.floats(-0.9, 0.9))
def test_a_density_from_a_state_is_the_checked_one_bit_for_bit(d, seed, slack):
    """``from_state`` builds its density unchecked; the public constructor accepts that matrix and keeps its bits,
    for unit vectors and for ones up to nine tenths of ``UNIT_NORM_TOL`` off."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = StateVector(a / np.linalg.norm(a) * (1.0 + slack * tol.UNIT_NORM_TOL))
    a = psi.amplitudes
    trusted = DensityOperator.from_state(psi).matrix
    checked = DensityOperator(np.outer(a, a.conj()) / np.vdot(a, a).real).matrix
    assert np.array_equal(trusted.view(np.uint64), checked.view(np.uint64))
