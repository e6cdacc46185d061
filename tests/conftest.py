"""Shared seeded random builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from qdecision import DecisionVariable, Projector, StateVector, variable_from_spectrum

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # ``--hypothesis-profile=fuzz`` runs the document fuzzer at full length
    settings.register_profile("fuzz", max_examples=10_000)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_state(r: int, rng: np.random.Generator) -> StateVector:
    v = rng.normal(size=r) + 1j * rng.normal(size=r)
    return StateVector(v / np.linalg.norm(v))


def random_hermitian(r: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    return (m + m.conj().T) / 2.0


def random_unitary(r: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    q, rr = np.linalg.qr(m)
    # fix the QR phase ambiguity so the result is a deterministic function of m
    return q * (np.diag(rr) / np.abs(np.diag(rr)))


def random_density(r: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def distinct_values(r: int, rng: np.random.Generator) -> list[float]:
    while True:
        vals = np.sort(rng.uniform(-5.0, 5.0, size=r))
        if np.all(np.diff(vals) > 1e-6):
            return [float(v) for v in vals]


def random_maximal_variable(
    r: int, rng: np.random.Generator, name: str = "v"
) -> DecisionVariable:
    u = random_unitary(r, rng)
    groups = [[u[:, j]] for j in range(r)]
    return variable_from_spectrum(name, distinct_values(r, rng), groups)


def commuting_setup(r, rng):
    """Two projectors plus a binary partition, all sharing one eigenbasis."""
    u = random_unitary(r, rng)
    split = int(rng.integers(1, r))
    idx_a = rng.choice(r, size=int(rng.integers(1, r)), replace=False)
    proj_a = Projector(sum(np.outer(u[:, j], u[:, j].conj()) for j in idx_a))
    idx_b = rng.choice(r, size=int(rng.integers(1, r)), replace=False)
    proj_b = Projector(sum(np.outer(u[:, j], u[:, j].conj()) for j in idx_b))
    groups = [[u[:, j] for j in range(split)], [u[:, j] for j in range(split, r)]]
    condition = variable_from_spectrum("cond", [0.0, 1.0], groups)
    return proj_a, proj_b, condition


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2026)
