"""Density reconstruction: design matrix, one-factorization solve, conditioning gate, and the IC family's closed form."""

import time

import numpy as np
import pytest

from qdecision import (
    DensityOperator,
    DimensionMismatch,
    Effect,
    GPMSample,
    InsufficientSpan,
    gpm_evaluate,
    ic_effect_basis,
    reconstruct_density,
)
from qdecision import engine
from qdecision import tolerances as tol
from qdecision.engine import _hermitian_coords, _hermitian_from_coords

from conftest import random_density, random_hermitian, random_state, random_unitary, rng_for

# the exact-input round-trip bound these tests hold reconstruction to
RECONSTRUCTION_TOL = 1e-8


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
        h = _hermitian_from_coords(x[:r], x[r::2], x[r + 1::2])
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
    assert np.linalg.norm(rec.rho.matrix - rho.matrix, "fro") <= RECONSTRUCTION_TOL


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
    assert np.linalg.norm(rec.rho.matrix - rho, "fro") <= RECONSTRUCTION_TOL


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


# ---------------------------------------------------------------------------
# the gate's condition number and the solve, against an eigendecomposition


def eigen_solve_reference(samples):
    """The trace-constrained minimizer through a full eigendecomposition of D^T D."""
    r = samples[0].effect.dim
    design = loop_design([s.effect.matrix for s in samples])
    mu = np.array([s.probability for s in samples])
    lam, u = np.linalg.eigh(design.T @ design)
    x0 = u @ ((u.T @ (design.T @ mu)) / lam)
    g = u @ (u[:r].sum(axis=0) / lam)  # G^-1 c, c the trace vector
    return loop_from_coords(x0 + ((1.0 - x0[:r].sum()) / g[:r].sum()) * g, r)


def effect_families(r):
    rng = rng_for(970 + r)
    ic = [f.matrix for f in ic_effect_basis(r)]
    extra = []
    for _ in range(r):
        _, v = np.linalg.eigh(random_hermitian(r, rng))
        extra.append((v * rng.uniform(0.0, 1.0, r)) @ v.conj().T)  # a random effect
    return {"ic": ic, "ic_plus_random": ic + extra, "near_duplicate": near_duplicate_family(r, 0.05)}


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("family", ["ic", "ic_plus_random", "near_duplicate"])
def test_condition_number_is_that_of_the_gram_matrix(r, family):
    mats = effect_families(r)[family]
    rec = reconstruct_density(samples_for(random_density(r, rng_for(980 + r)), mats))
    design = loop_design(mats)
    assert rec.condition_number == pytest.approx(np.linalg.cond(design.T @ design), rel=1e-9)


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("family", ["ic", "ic_plus_random", "near_duplicate"])
def test_solve_agrees_with_the_eigen_solve(r, family):
    mats = effect_families(r)[family]
    rng = rng_for(985 + r)
    samples = samples_for(random_density(r, rng), mats)
    noise = rng.normal(0.0, 1e-8, size=len(samples))
    for given in (samples, [GPMSample(s.effect, s.probability + n) for s, n in zip(samples, noise)]):
        rec = reconstruct_density(given)
        assert not rec.clipped
        assert np.abs(rec.rho.matrix - eigen_solve_reference(given)).max() <= 1e-12


# ---------------------------------------------------------------------------
# the gate on repeated calls, and the IC family's closed form against the generic path


def ic_samples(r, seed, noisy):
    rng = rng_for(seed)
    rho = DensityOperator(random_density(r, rng))
    samples = [GPMSample(f, gpm_evaluate(rho, f)) for f in ic_effect_basis(r)]
    if not noisy:
        return samples
    noise = rng.normal(0.0, 1e-7, size=len(samples))
    return [GPMSample(s.effect, float(np.clip(s.probability + n, 0.0, 1.0))) for s, n in zip(samples, noise)]


@pytest.fixture
def generic_calls(monkeypatch):
    """The dimensions at which ``reconstruct_density`` built a design matrix, which only its generic path does."""
    calls, real = [], engine._hermitian_coords

    def spy(mats):
        calls.append(mats.shape[1])
        return real(mats)

    monkeypatch.setattr(engine, "_hermitian_coords", spy)
    return calls


def on_copies(samples):
    """The same samples on equal copies of their effects, which only the generic path inverts."""
    return [GPMSample(Effect._trusted(matrix=s.effect.matrix.copy()), s.probability) for s in samples]


@pytest.mark.parametrize("r", [*range(2, 9), 32])
@pytest.mark.parametrize("noisy", [False, True])
def test_warm_gate_gives_the_cold_result(r, noisy, generic_calls):
    """Calls with the IC family's cache cold and warm agree bit for bit; once the cache has
    dropped the family, its old effects take the generic path and agree to rounding."""
    engine._ic_basis.cache_clear()
    samples = ic_samples(r, 1000 + r, noisy)
    cold = reconstruct_density(samples)
    warm = reconstruct_density(samples)
    assert engine._ic_basis.cache_info().currsize == 1 and generic_calls == []
    assert np.array_equal(warm.rho.matrix, cold.rho.matrix)
    assert (warm.residual, warm.min_eigenvalue, warm.condition_number, warm.clipped) == (
        cold.residual,
        cold.min_eigenvalue,
        cold.condition_number,
        cold.clipped,
    )
    engine._ic_basis.cache_clear()
    dropped = reconstruct_density(samples)
    assert generic_calls == [r]
    assert np.linalg.norm(dropped.rho.matrix - cold.rho.matrix, "fro") <= 1e-12
    assert dropped.condition_number == pytest.approx(cold.condition_number, rel=1e-11)


@pytest.mark.parametrize("r", [3, 4, 8])
def test_a_held_family_keeps_its_closed_form_after_other_dimensions_are_built(r, generic_calls):
    """The family is recognised by identity, so it stays cached for every dimension: a family obtained before four
    other dimensions were built still takes the closed form, bit for bit a fresh family's result."""
    engine._ic_basis.cache_clear()
    samples = ic_samples(r, 1100 + r, noisy=False)
    for other in [d for d in range(2, 7) if d != r][:4]:
        ic_effect_basis(other)
    held = reconstruct_density(samples)
    engine._ic_basis.cache_clear()
    fresh = reconstruct_density([GPMSample(f, s.probability) for f, s in zip(ic_effect_basis(r), samples)])
    assert generic_calls == []
    assert np.array_equal(held.rho.matrix.view(np.uint64), fresh.rho.matrix.view(np.uint64))
    assert np.array_equal(
        np.array([held.residual, held.min_eigenvalue, held.condition_number]).view(np.uint64),
        np.array([fresh.residual, fresh.min_eigenvalue, fresh.condition_number]).view(np.uint64),
    )


_BOUND_MESSAGE = f"^dimension must be at most {tol.MAX_DIMENSION}, got {tol.MAX_DIMENSION + 1}$"


def test_no_family_is_built_beyond_the_dimension_bound():
    """Every family built stays cached, so r^2 samples of a dimension no family has must not build one to compare."""
    engine._ic_basis.cache_clear()
    r = tol.MAX_DIMENSION + 1
    samples = [GPMSample(np.eye(r) / 2, 0.5)] * (r * r - 1) + [GPMSample(np.eye(2) / 2, 0.5)]
    with pytest.raises(DimensionMismatch, match=_BOUND_MESSAGE):
        reconstruct_density(samples)
    assert engine._ic_basis.cache_info().currsize == 0


def test_a_dimension_above_the_bound_is_refused_before_any_work(generic_calls):
    """r^2 samples of r x r effects above ``MAX_DIMENSION`` end as ``ic_effect_basis`` ends, before the general path's
    r^2 x r^2 design and its O(r^6) Gram eigenvalues are built (about a second at r = 33 without the bound)."""
    r = tol.MAX_DIMENSION + 1
    samples = [GPMSample(Effect(np.eye(r) / 2), 0.5)] * (r * r)
    start = time.perf_counter()
    with pytest.raises(DimensionMismatch, match=_BOUND_MESSAGE):
        reconstruct_density(samples)
    assert time.perf_counter() - start < 0.05 and generic_calls == []


@pytest.mark.parametrize("effect", [lambda: Effect(np.zeros((0, 0))), lambda: np.zeros((0, 0))], ids=["effect", "matrix"])
def test_a_0_by_0_effect_is_a_dimension_mismatch_before_any_reconstruction(effect):
    """A 0 x 0 matrix ended in a bare ``IndexError`` at the Gram eigenvalues; no effect of it can now be built."""
    with pytest.raises(DimensionMismatch, match="^Effect must be square and non-empty, got \\(0, 0\\)$"):
        reconstruct_density([GPMSample(effect(), 1.0)])


def rejection_message(samples):
    with pytest.raises(InsufficientSpan) as info:
        reconstruct_density(samples)
    return str(info.value)


def test_epsilon_pair_gives_the_same_verdict_on_a_second_call():
    rho = random_density(3, rng_for(991))
    rejected = samples_for(rho, near_duplicate_family(3, 3e-3))
    accepted = samples_for(rho, near_duplicate_family(3, 5e-3))
    first = rejection_message(rejected)
    assert rejection_message(rejected) == first
    for _ in range(2):
        assert np.linalg.norm(reconstruct_density(accepted).rho.matrix - rho, "fro") <= RECONSTRUCTION_TOL
    assert rejection_message(rejected) == first


@pytest.mark.parametrize("r", [2, 3, 5])
@pytest.mark.parametrize("name", ["one_missing", "three_missing", "duplicate", "diagonal_only", "single_effect"])
def test_rank_deficient_families_are_rejected_on_a_second_call(r, name):
    samples = samples_for(np.eye(r) / r, rank_deficient_families(r)[name])
    first = rejection_message(samples)
    assert rejection_message(samples) == first


@pytest.mark.parametrize("r", [2, 4, 7])
def test_alternating_families_each_get_their_own_condition_number(r):
    ic = [f.matrix for f in ic_effect_basis(r)]
    u = random_unitary(r, rng_for(1040 + r))
    rotated = [u @ m @ u.conj().T for m in ic]
    rho = random_density(r, rng_for(1050 + r))
    for mats in (ic, rotated, ic, rotated, ic):
        design = loop_design(mats)
        rec = reconstruct_density(samples_for(rho, mats))
        assert rec.condition_number == pytest.approx(np.linalg.cond(design.T @ design), rel=1e-9)


@pytest.mark.parametrize("r", range(2, 33))
@pytest.mark.parametrize("noisy", [False, True])
def test_closed_form_is_the_generic_solve(r, noisy, generic_calls):
    samples = ic_samples(r, 1000 + r, noisy)
    closed = reconstruct_density(samples)
    assert generic_calls == []
    general = reconstruct_density(on_copies(samples))
    assert generic_calls == [r]
    assert np.linalg.norm(closed.rho.matrix - general.rho.matrix, "fro") <= 1e-12
    assert abs(closed.residual - general.residual) <= 1e-14
    assert closed.clipped == general.clipped
    assert closed.condition_number == pytest.approx(general.condition_number, rel=1e-11)
    assert closed.min_eigenvalue == pytest.approx(general.min_eigenvalue, abs=1e-12)


def look_alike_families(r):
    """Families that share the IC family's effects, its matrices or its length, but are not it."""
    ic = ic_effect_basis(r)
    _, v = np.linalg.eigh(random_hermitian(r, rng_for(1070 + r)))
    extra = Effect((v * rng_for(1080 + r).uniform(0.0, 1.0, r)) @ v.conj().T)
    return {
        "permuted": ic[::-1],
        "rebuilt": [Effect(f.matrix.copy()) for f in ic],
        "plus_one": [*ic, extra],
        "minus_one": ic[:-1],
    }


@pytest.mark.parametrize("r", [2, 3, 8])
@pytest.mark.parametrize("name", ["permuted", "rebuilt", "plus_one", "minus_one"])
def test_look_alike_families_take_the_generic_path(r, name, generic_calls):
    rho = DensityOperator(random_density(r, rng_for(1090 + r)))
    samples = [GPMSample(f, gpm_evaluate(rho, f)) for f in look_alike_families(r)[name]]
    if name == "minus_one":
        with pytest.raises(InsufficientSpan):
            reconstruct_density(samples)
    else:
        assert np.linalg.norm(reconstruct_density(samples).rho.matrix - rho.matrix, "fro") <= RECONSTRUCTION_TOL
    assert generic_calls == [r]


def test_ic_effect_basis_hands_out_new_lists_of_shared_read_only_effects():
    first, second = ic_effect_basis(3), ic_effect_basis(3)
    assert first is not second and len(first) == len(second) == 9
    assert all(a is b for a, b in zip(first, second))
    first.clear()
    second.append(second[0])
    third = ic_effect_basis(3)
    assert len(third) == 9 and all(a is b for a, b in zip(third, ic_effect_basis(3)))
    for f, m in zip(third, loop_ic_effect_basis(3)):
        assert np.array_equal(f.matrix, m)
        assert not f.matrix.flags.writeable
        with pytest.raises(ValueError):
            f.matrix[0, 0] = 0.5
        with pytest.raises(ValueError):
            f.matrix.setflags(write=True)


def test_shared_effects_refuse_attribute_rebinding():
    family = ic_effect_basis(2)
    with pytest.raises(AttributeError):
        family[1].matrix = np.eye(2, dtype=complex)
    with pytest.raises(AttributeError):
        del family[1].matrix
    for f, m in zip(ic_effect_basis(2), loop_ic_effect_basis(2)):
        assert np.array_equal(f.matrix, m)


def dense_ic_effect_basis(r):
    """The family as one r^2 x r x r stack, in ``ic_effect_basis`` order: the layout the shared buffers replaced."""
    eye = np.eye(r, dtype=complex)
    j, k = np.triu_indices(r, 1)
    pairs = (eye[j][:, None] + np.array([1.0, 1.0j])[:, None] * eye[k][:, None]) / np.sqrt(2.0)
    vectors = np.concatenate([eye, pairs.reshape(-1, r)])
    return vectors[:, :, None] * vectors.conj()[:, None, :]


@pytest.mark.parametrize("r", range(2, 33))
def test_ic_windows_hold_the_dense_stack_bits_and_evaluate_as_copies(r):
    """Each effect is a window of a shared buffer; a window at any address gives a copy's Born bits."""
    rng = rng_for(2000 + r)
    states = [random_state(r, rng), DensityOperator(random_density(r, rng))]
    bits = lambda x: np.float64(x).view(np.uint64)
    for f, m in zip(ic_effect_basis(r), dense_ic_effect_basis(r), strict=True):
        assert np.array_equal(f.matrix.view(np.uint64), m.view(np.uint64))
        assert f.matrix.flags.c_contiguous and not f.matrix.flags.writeable
        copy = Effect._trusted(matrix=f.matrix.copy())
        for s in states:
            assert bits(gpm_evaluate(s, f)) == bits(gpm_evaluate(s, copy))


def test_ic_family_at_32_holds_at_most_2_mb():
    owners = {id(f.matrix.base): f.matrix.base for f in ic_effect_basis(32)}
    assert sum(b.nbytes for b in owners.values()) <= 2_000_000


@pytest.mark.parametrize("r", [2, 3, 32])
def test_no_ic_effect_memory_can_be_made_writeable(r):
    """Neither a window nor the buffer that owns it turns writeable, so no write can change a later probability."""
    for f in ic_effect_basis(r):
        for a in (f.matrix, f.matrix.base):
            with pytest.raises(ValueError):
                a.setflags(write=True)


# ---------------------------------------------------------------------------
# the result is wrapped unchecked, so the public density check must accept every one


def states_to_reconstruct(r, rng):
    """A mixed density, a pure one, and a trace-one matrix with eigenvalue -1e-6 that the fit must clip."""
    psi, phi = (rng.normal(size=r) + 1j * rng.normal(size=r) for _ in range(2))
    psi = psi / np.linalg.norm(psi)
    phi = phi - np.vdot(psi, phi) * psi
    phi = phi / np.linalg.norm(phi)
    pure = np.outer(psi, psi.conj())
    return {"mixed": random_density(r, rng), "pure": pure, "negative": pure + 1e-6 * (pure - np.outer(phi, phi.conj()))}


@pytest.mark.parametrize("r", range(2, 17))
@pytest.mark.parametrize("noisy", [False, True])
def test_every_reconstruction_passes_the_density_check(r, noisy, generic_calls):
    rng = rng_for(1100 + r)
    families = {
        "ic": ic_effect_basis(r),
        "copies": [Effect._trusted(matrix=f.matrix.copy()) for f in ic_effect_basis(r)],
        "ic_plus_random": [Effect(m) for m in effect_families(r)["ic_plus_random"]],
    }
    for kind, rho in states_to_reconstruct(r, rng).items():
        for name, effects in families.items():
            mu = np.array([np.vdot(rho, f.matrix).real for f in effects])
            if noisy:
                mu = mu + rng.normal(0.0, 1e-7, size=mu.size)
            rec = reconstruct_density([GPMSample(f, float(p)) for f, p in zip(effects, np.clip(mu, 0.0, 1.0))])
            DensityOperator(rec.rho.matrix)
            if kind != "pure":  # noise moves a pure state's zero eigenvalues either way
                assert rec.clipped == (kind == "negative"), (kind, name)
    assert generic_calls == [r, r] * 3
