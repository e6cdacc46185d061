"""Cut points of the spin draw: ``comparison_report`` counts the raw uniform draw below the k at which a spin changes.

``rng.random`` returns u = k * 2**-53, and each spin is a function of k that changes only at the cuts ``_cuts``
returns. These tests hold the cuts to the definition ``np.cos(a - phi) >= 0`` and the counts to the whole-draw masks
of ``test_spin.whole_draw_report``; an angle is read as its ``Direction`` throughout.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from qdecision import Direction, EngineError, InvariantViolation, comparison_report, quantum_conditional, spin_component
from qdecision.spin import TWO_PI, _cuts

from conftest import rng_for
from test_spin import whole_draw_report

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

K = 2**53


def phi_at(k) -> np.ndarray:
    """phi = fl(u * 2*pi) at the draw's values u = k * 2**-53, as ``sample_phi`` computes it."""
    return np.asarray(k, dtype=np.int64) * 2.0**-53 * TWO_PI


def plus(a: float, k) -> np.ndarray:
    """The spin along ``a`` is +1 at the draw's values k * 2**-53: the cosine definition."""
    return np.cos(a - phi_at(k)) >= 0.0


def shifted(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


raw_angles = st.floats(-50.0, 50.0)
quarter_turns = st.builds(
    lambda j, ulps: shifted(j * math.pi / 2, ulps), st.integers(-12, 12), st.integers(-30, 30)
)
pinned_angles = st.sampled_from([TWO_PI, 7.0, 8.1, -3.0, 0.0, math.pi, -TWO_PI])
# far from zero, a - phi rounds to a coarse grid: few distinct values, and guesses of the cut's k miss by more
large_angles = st.builds(lambda x, e: math.ldexp(x, e), st.floats(-1.0, 1.0), st.integers(5, 60))
finite_angles = st.one_of(raw_angles, quarter_turns, pinned_angles)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


def outcome(a, b, n, seed, report):
    """The report, or the type and message of the engine error it raised, with nan made comparable."""
    try:
        rep = report(a, b, n, seed)
    except EngineError as exc:
        return type(exc), str(exc)
    return tuple(repr(v) for v in dataclasses.astuple(rep))


# ---------------------------------------------------------------------------
# the cuts are exact


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(a=st.one_of(finite_angles, large_angles))
def test_every_cut_is_a_change_of_the_mask(a):
    a = Direction(a).angle
    cuts = _cuts(a)
    assert cuts == sorted(set(cuts)) and all(0 < k < K for k in cuts)
    for k in cuts:
        before, at = plus(a, [k - 1, k])
        assert before != at, (a, k)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(a=st.one_of(finite_angles, large_angles), seed=st.integers(0, 2**32 - 1))
def test_the_mask_is_constant_between_cuts(a, seed):
    a = Direction(a).angle
    edges = [0, *_cuts(a), K]
    rng = rng_for(seed)
    for lo, hi in zip(edges, edges[1:]):
        k = np.concatenate([[lo, hi - 1], rng.integers(lo, hi, 64)])
        mask = plus(a, k)
        assert mask.all() or not mask.any(), (a, lo, hi)


@pytest.mark.parametrize("degrees", [0.0, 10.0, 60.0, 90.0, 135.0, 180.0, 270.0, 359.9])
def test_a_direction_has_at_most_four_cuts(degrees):
    assert 1 <= len(_cuts(Direction.from_degrees(degrees).angle)) <= 4


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_a_non_finite_angle_has_no_cut(a):
    a = Direction(a).angle
    assert math.isnan(a) and _cuts(a) == []
    assert not plus(a, [0, K // 2, K - 1]).any()


# ---------------------------------------------------------------------------
# the counts are those of the whole-draw masks


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    a=finite_angles,
    b=finite_angles,
    n=st.integers(1, 70_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_counts_match_the_whole_draw_masks(a, b, n, seed):
    assert outcome(a, b, n, seed, comparison_report) == outcome(a, b, n, seed, whole_draw_report)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(
    pair=st.one_of(st.tuples(non_finite, finite_angles), st.tuples(finite_angles, non_finite)),
    n=st.integers(1, 5_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_finite_angles_keep_their_outcome(pair, n, seed):
    a, b = pair
    assert outcome(a, b, n, seed, comparison_report) == outcome(a, b, n, seed, whole_draw_report)


@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_an_infinite_angle_ends_as_nan_does(x):
    for a, b in ((x, 0.3), (0.3, x)):
        nan_a, nan_b = (math.nan if v == x else v for v in (a, b))
        got = outcome(a, b, 1_000, 3, comparison_report)
        assert got == outcome(nan_a, nan_b, 1_000, 3, comparison_report)
        assert got[0] is not ValueError and issubclass(got[0], EngineError)
    with pytest.raises(InvariantViolation):
        quantum_conditional(0.3, x)


# ---------------------------------------------------------------------------
# a raw angle is its Direction


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    a=st.one_of(finite_angles, large_angles),
    b=st.one_of(finite_angles, large_angles),
    n=st.integers(1, 5_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_raw_angles_report_as_their_directions(a, b, n, seed):
    da, db = Direction(a), Direction(b)
    assert outcome(a, b, n, seed, comparison_report) == outcome(da, db, n, seed, comparison_report)
    assert quantum_conditional(a, b) == quantum_conditional(da, db)
    phi = np.concatenate([phi_at(rng_for(seed).integers(0, K, 64)), [a, b, a + math.pi / 2, -b]])
    assert np.array_equal(spin_component(a, phi), spin_component(da, phi))
    assert spin_component(b, a) == spin_component(db, a)


def test_memory_is_one_float_and_one_bool_block():
    tracemalloc.start()
    try:
        comparison_report(Direction(0.0), Direction.from_degrees(60.0), 2_000_000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


# ---------------------------------------------------------------------------
# Direction stays in [0, 2*pi)


@pytest.mark.parametrize("make", [lambda: Direction(-1e-20), lambda: Direction.from_degrees(-1e-15)])
def test_a_tiny_negative_direction_is_zero(make):
    assert make().angle == 0.0


@pytest.mark.parametrize("big", [10**400, -(10**400)])
def test_an_int_beyond_the_float_range_is_a_non_finite_direction(big):
    for d in (Direction(big), Direction.from_degrees(big)):
        assert math.isnan(d.angle)
    assert outcome(big, 0.3, 1_000, 3, comparison_report) == outcome(math.inf, 0.3, 1_000, 3, comparison_report)
    with pytest.raises(InvariantViolation):
        quantum_conditional(0.3, big)


def test_directions_below_zero_stay_below_two_pi():
    for x in [-(2.0**-e) for e in range(0, 1075)]:
        assert 0.0 <= Direction(x).angle < TWO_PI, x


def test_a_tiny_negative_delta_reports_like_zero():
    tiny = comparison_report(Direction(0.0), Direction.from_degrees(-1e-15), 10_000, 3)
    assert tiny == comparison_report(Direction(0.0), Direction(0.0), 10_000, 3)
