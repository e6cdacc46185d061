"""Density reconstruction: design matrix, one-factorization solve, conditioning gate."""

import numpy as np
import pytest

from qdecision import (
    DensityOperator,
    Effect,
    GPMSample,
    InsufficientSpan,
    gpm_evaluate,
    ic_effect_basis,
    reconstruct_density,
)
from qdecision import tolerances as tol
from qdecision.engine import _hermitian_coords, _hermitian_from_coords

from conftest import random_density, random_hermitian, rng_for


# reference implementations: the per-entry loops the vectorized code replaced


def loop_ic_effect_basis(r):
    eye = np.eye(r, dtype=complex)
    mats = [np.outer(eye[:, j], eye[:, j].conj()) for j in range(r)]
    for j in range(r):
        for k in range(j + 1, r):
            for phase in (1.0, 1.0j):
                v = (eye[:, j] + phase * eye[:, k]) / np.sqrt(2.0)
                mats.append(np.outer(v, v.conj()))
    return mats


def loop_coords(m, r):
    row = [m[i, i].real for i in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            row.append(2.0 * m[i, j].real)
            row.append(2.0 * m[i, j].imag)
    return np.array(row)


def loop_from_coords(x, r):
    out = np.zeros((r, r), dtype=complex)
    for i in range(r):
        out[i, i] = x[i]
    idx = r
    for i in range(r):
        for j in range(i + 1, r):
            out[i, j] = x[idx] + 1j * x[idx + 1]
            out[j, i] = x[idx] - 1j * x[idx + 1]
            idx += 2
    return out


def loop_design(mats):
    r = mats[0].shape[0]
    return np.array([loop_coords(m, r) for m in mats])


def gram_condition(mats):
    design = loop_design(mats)
    w = np.linalg.eigvalsh(design.T @ design)
    return w[-1] / w[0]


def samples_for(rho, mats):
    return [GPMSample(Effect(m), float(np.trace(rho @ m).real)) for m in mats]


def lstsq_reference(samples):
    """Trace-constrained least squares by eliminating the last diagonal parameter."""
    r = samples[0].effect.dim
    design = loop_design([s.effect.matrix for s in samples])
    mu = np.array([s.probability for s in samples])
    last = r - 1
    c_free = np.ones(r * r - 1)
    c_free[last:] = 0.0  # the free parameters: r - 1 diagonals, then the off-diagonals
    free = np.delete(design, last, axis=1)
    col = design[:, last]
    z = np.linalg.lstsq(free - np.outer(col, c_free), mu - col, rcond=None)[0]
    x = np.insert(z, last, 1.0 - c_free @ z)
    return loop_from_coords(x, r), float(np.linalg.norm(design @ x - mu))


# ---------------------------------------------------------------------------
# vectorized builders against the loops


@pytest.mark.parametrize("r", range(2, 9))
def test_ic_effect_basis_equals_the_loop(r):
    effects = ic_effect_basis(r)
    reference = loop_ic_effect_basis(r)
    assert len(effects) == len(reference) == r * r
    for f, m in zip(effects, reference):
        assert isinstance(f, Effect)
        assert np.array_equal(f.matrix, m)


@pytest.mark.parametrize("r", range(2, 9))
def test_design_is_the_per_entry_formula_and_evaluates_traces(r):
    rng = rng_for(900 + r)
    mats = [f.matrix for f in ic_effect_basis(r)] + [random_hermitian(r, rng) for _ in range(3)]
    design = _hermitian_coords(np.stack(mats))
    assert np.array_equal(design, loop_design(mats))
    for _ in range(3):
        x = rng.normal(size=r * r)
        h = _hermitian_from_coords(x, r)
        assert np.array_equal(h, loop_from_coords(x, r))
        traces = np.array([np.trace(h @ m).real for m in mats])
        assert np.allclose(design @ x, traces, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# agreement with an independent constrained least-squares solve


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("noisy", [False, True])
def test_reconstruction_agrees_with_lstsq(r, noisy):
    rng = rng_for(950 + r)
    rho = DensityOperator(random_density(r, rng))
    samples = [GPMSample(f, gpm_evaluate(rho, f)) for f in ic_effect_basis(r)]
    if noisy:
        noise = rng.normal(0.0, 1e-7, size=len(samples))
        samples = [GPMSample(s.effect, s.probability + n) for s, n in zip(samples, noise)]
    rec = reconstruct_density(samples)
    ref_rho, ref_residual = lstsq_reference(samples)
    assert not rec.clipped
    assert np.linalg.norm(rec.rho.matrix - ref_rho, "fro") <= 1e-12
    assert rec.residual == pytest.approx(ref_residual, abs=1e-12)


def test_round_trip_at_dimension_32():
    rho = DensityOperator(random_density(32, rng_for(990)))
    rec = reconstruct_density([GPMSample(f, gpm_evaluate(rho, f)) for f in ic_effect_basis(32)])
    assert np.linalg.norm(rec.rho.matrix - rho.matrix, "fro") <= tol.RECONSTRUCTION_TOL


# ---------------------------------------------------------------------------
# the conditioning gate


def near_duplicate_family(r, eps):
    """IC family with F_2 replaced by (1 - eps) F_1 + eps F_2: full rank for
    eps > 0, but cond(D^T D) grows like 1 / eps^2."""
    mats = [f.matrix for f in ic_effect_basis(r)]
    mats[1] = (1.0 - eps) * mats[0] + eps * mats[1]
    return mats


def test_ill_conditioned_family_is_rejected():
    mats = near_duplicate_family(3, 3e-3)
    assert np.linalg.matrix_rank(loop_design(mats)) == 9
    assert gram_condition(mats) > tol.GRAM_CONDITION_MAX
    rho = random_density(3, rng_for(991))
    with pytest.raises(InsufficientSpan, match=r"cond\(D\^T D\) = 1\.7\d*e\+06"):
        reconstruct_density(samples_for(rho, mats))


def test_family_inside_the_gate_is_accepted():
    mats = near_duplicate_family(3, 5e-3)
    assert gram_condition(mats) < tol.GRAM_CONDITION_MAX
    rho = random_density(3, rng_for(991))
    rec = reconstruct_density(samples_for(rho, mats))
    assert np.linalg.norm(rec.rho.matrix - rho, "fro") <= tol.RECONSTRUCTION_TOL


def rank_deficient_families(r):
    mats = [f.matrix for f in ic_effect_basis(r)]
    duplicate = list(mats)
    duplicate[1] = mats[0]
    return {
        "one_missing": mats[:-1],
        "three_missing": mats[3:],
        "duplicate": duplicate,
        "diagonal_only": mats[:r] * r,
        "single_effect": mats[:1],
    }


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("name", ["one_missing", "three_missing", "duplicate", "diagonal_only", "single_effect"])
def test_rank_deficient_families_are_rejected(r, name):
    mats = rank_deficient_families(r)[name]
    assert np.linalg.matrix_rank(loop_design(mats)) < r * r
    with pytest.raises(InsufficientSpan):
        reconstruct_density(samples_for(np.eye(r) / r, mats))
