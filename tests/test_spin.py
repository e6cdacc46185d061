"""Hidden-direction spin model: sampling and conditionals."""

import math
import tracemalloc

import numpy as np
import pytest

from qdecision import (
    DegenerateConditioning,
    Direction,
    EngineError,
    InvalidSampleCount,
    InvariantViolation,
    SpinComparison,
    classical_conditional,
    classical_conditional_analytic,
    comparison_report,
    quantum_conditional,
    sample_phi,
    spin_component,
    __version__,
)
from qdecision import spin
from qdecision.tolerances import MAX_SPIN_SAMPLES

from conftest import rng_for

DEG = math.pi / 180.0


# ---------------------------------------------------------------------------
# spin component


def test_spin_along_own_direction_is_plus():
    assert spin_component(Direction(1.3), 1.3) == 1


def test_spin_opposite_direction_is_minus():
    assert spin_component(Direction(1.3), 1.3 + math.pi) == -1


def test_spin_tie_rule_is_plus():
    assert spin_component(Direction(0.0), math.pi / 2.0) == 1


# ---------------------------------------------------------------------------
# sampling contract


def test_sampling_is_deterministic():
    assert np.array_equal(sample_phi(50, 7), sample_phi(50, 7))


def test_sampling_range_and_mean():
    phi = sample_phi(1_000_000, 5)
    assert phi.min() >= 0.0 and phi.max() < 2.0 * math.pi
    assert abs(np.mean(np.cos(phi))) < 3.0 / math.sqrt(1_000_000)


def test_disjoint_seeds_give_disjoint_streams():
    a = sample_phi(100, 0)
    b = sample_phi(100, 1)
    assert not np.any(a == b)


def test_samples_come_from_the_first_spawned_stream():
    child = np.random.SeedSequence(9).spawn(1)[0]
    expected = np.random.default_rng(child).uniform(0.0, 2.0 * math.pi, 1000)
    assert np.array_equal(sample_phi(1000, 9), expected)


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError):
        sample_phi(0, 1)


@pytest.mark.parametrize("n", [0, -1, MAX_SPIN_SAMPLES + 1])
def test_a_sample_count_out_of_range_is_an_engine_error_and_a_value_error(n):
    assert issubclass(InvalidSampleCount, EngineError) and issubclass(InvalidSampleCount, ValueError)
    for draw in (lambda: sample_phi(n, 1), lambda: comparison_report(0.0, 1.0, n, 1)):
        with pytest.raises(InvalidSampleCount, match=f"^need from 1 to {MAX_SPIN_SAMPLES} samples, got {n}$"):
            draw()


class Drawn(Exception):
    """Raised in place of making the generator a draw would come from."""


@pytest.fixture
def no_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(np.random, "default_rng", refuse)


@pytest.mark.parametrize("n", [MAX_SPIN_SAMPLES + 1, 2**63])
def test_a_sample_count_above_the_cap_is_rejected_before_the_draw(no_draw, n):
    with pytest.raises(ValueError, match=f"^need from 1 to {MAX_SPIN_SAMPLES} samples, got {n}$"):
        sample_phi(n, 1)
    with pytest.raises(ValueError, match=f"^need from 1 to {MAX_SPIN_SAMPLES} samples, got {n}$"):
        comparison_report(0.0, 1.0, n, 1)


def test_the_cap_itself_reaches_the_draw(no_draw):
    for draw in (lambda: sample_phi(MAX_SPIN_SAMPLES, 1), lambda: comparison_report(0.0, 1.0, MAX_SPIN_SAMPLES, 1)):
        with pytest.raises(Drawn):
            draw()


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf, 10**400, Direction(math.nan)])
def test_a_non_finite_second_angle_is_rejected_before_the_draw(no_draw, b):
    with pytest.raises(InvariantViolation, match="^state vector contains non-finite entries$"):
        comparison_report(0.3, b, 1_000, 3)
    with pytest.raises(InvariantViolation, match="^state vector contains non-finite entries$"):  # and a first one too
        comparison_report(b, 0.3, 1_000, 3)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 10**400, -(10**400), Direction(math.inf)])
def test_a_non_finite_direction_has_no_spin(a):
    for phi in (0.3, np.linspace(0.0, 6.0, 7)):
        with pytest.raises(InvariantViolation, match="^spin direction .* is not finite$"):
            spin_component(a, phi)


# ---------------------------------------------------------------------------
# classical conditional


def test_classical_conditional_aligned_directions():
    assert classical_conditional(Direction(0.4), Direction(0.4), 10_000, 3) == pytest.approx(1.0)


def test_classical_conditional_opposite_directions():
    est = classical_conditional(Direction(0.0), Direction(math.pi), 10_000, 3)
    assert est == pytest.approx(0.0, abs=1e-6)


def test_classical_conditional_at_60_degrees():
    # oracle: overlap of half-circles, (pi - delta) / pi
    est = classical_conditional(Direction(0.0), Direction(60.0 * DEG), 1_000_000, 42)
    assert abs(est - 2.0 / 3.0) < 0.005
    assert classical_conditional_analytic(Direction(0.0), Direction(60.0 * DEG)) == pytest.approx(
        2.0 / 3.0, abs=1e-15
    )


def test_degenerate_conditioning():
    # seed 1 draws a single sample on the negative half-circle of direction 0
    with pytest.raises(DegenerateConditioning):
        classical_conditional(Direction(0.0), Direction(1.0), 1, 1)


# ---------------------------------------------------------------------------
# quantum conditional


def test_quantum_conditional_extremes():
    assert quantum_conditional(Direction(0.0), Direction(0.0)) == pytest.approx(1.0, abs=1e-15)
    assert quantum_conditional(Direction(0.0), Direction(math.pi)) == pytest.approx(0.0, abs=1e-15)


def test_quantum_conditional_at_60_degrees():
    assert quantum_conditional(Direction(0.0), Direction(60.0 * DEG)) == pytest.approx(
        0.75, abs=1e-12
    )


def test_quantum_conditional_matches_closed_form_on_grid():
    # oracle: cos^2(delta / 2) on a 1-degree grid
    for deg in range(0, 360):
        delta = deg * DEG
        got = quantum_conditional(Direction(0.3), Direction(0.3 + delta))
        sep = min(delta, 2.0 * math.pi - delta)
        assert abs(got - math.cos(sep / 2.0) ** 2) <= 1e-12


# ---------------------------------------------------------------------------
# classical against quantum


def test_comparison_gap_at_60_degrees():
    rep = comparison_report(Direction(0.0), Direction(60.0 * DEG), 200_000, 11)
    assert rep.gap == pytest.approx(0.75 - 2.0 / 3.0, abs=1e-12)
    assert abs(rep.gap - 0.0833) < 5e-5
    assert abs(rep.classical_estimate - rep.classical_analytic) < 0.01


def test_comparison_gap_vanishes_when_aligned():
    rep = comparison_report(Direction(0.9), Direction(0.9), 10_000, 12)
    assert rep.gap == pytest.approx(0.0, abs=1e-15)
    assert rep.classical_estimate == pytest.approx(1.0)


def test_models_agree_at_right_angles():
    rep = comparison_report(Direction(0.0), Direction(math.pi / 2.0), 400_000, 13)
    assert rep.classical_analytic == pytest.approx(0.5, abs=1e-15)
    assert rep.quantum == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.classical_estimate - 0.5) < 0.005


def test_marginals_are_fair_for_every_direction():
    n = 200_000
    phi = sample_phi(n, 42)
    bound = 3.0 / (2.0 * math.sqrt(n))
    for k in range(8):
        direction = Direction(k * math.pi / 8.0)
        p_plus = float(np.mean(spin_component(direction, phi) == 1))
        assert abs(p_plus - 0.5) <= bound


def test_spin_demo_matches_the_public_functions():
    from qdecision.demos import run_spin_demo

    n, seed = 20_000, 5
    marginals, comparison = (dict(r.outputs) for r in run_spin_demo(60.0, n, seed).results)
    phi = sample_phi(n, seed)
    b = Direction.from_degrees(60.0)
    assert marginals["p_plus_a"] == float(np.mean(spin_component(Direction(0.0), phi) == 1))
    assert marginals["p_plus_b"] == float(np.mean(spin_component(b, phi) == 1))
    expected = comparison_report(Direction(0.0), b, n, seed)
    assert comparison["classical_estimate"] == expected.classical_estimate
    assert comparison["gap"] == expected.gap


def test_comparison_marginals_and_estimate_come_from_one_draw():
    n, seed = 20_000, 8
    a, b = Direction(0.3), Direction.from_degrees(100.0)
    rep = comparison_report(a, b, n, seed)
    phi = sample_phi(n, seed)
    plus_a, plus_b = spin_component(a, phi) == 1, spin_component(b, phi) == 1
    assert rep.p_plus_a == float(np.mean(plus_a))
    assert rep.p_plus_b == float(np.mean(plus_b))
    assert rep.classical_estimate == float(np.sum(plus_a & plus_b) / np.sum(plus_a))
    assert classical_conditional(a, b, n, seed) == rep.classical_estimate


# ---------------------------------------------------------------------------
# the +1 mask ``comparison_report`` counts: the spin at k = 0, flipped at each cut, pinned to the sign of the cosine


K = 2**53


def cosine_mask(a, phi):
    """The definition the mask implements: cos(a - phi) >= 0."""
    return np.cos(a - phi) >= 0.0


def cut_mask(a, k) -> np.ndarray:
    """The spin along ``a`` is +1 at the draw's values k * 2**-53, as the cuts of ``spin._cuts`` give it."""
    a = spin._angle(a)
    flips = np.searchsorted(spin._cuts(a), k, side="right")
    return (flips % 2 == 0) == cosine_mask(a, 0.0)


@pytest.mark.parametrize("a", [0.0, 1.0, 7.0])
def test_plus_mask_is_the_cosine_sign_at_every_quarter_turn(a):
    # the draw's k where a - phi lands within 30 steps of each k * pi/2, where cos changes sign or peaks
    angle = Direction(a).angle
    centres = [round((angle - j * math.pi / 2) / (2.0 * math.pi) * K) for j in range(-4, 5)]
    k = np.unique(np.clip([c + i for c in centres for i in range(-30, 31)], 0, K - 1))
    phi = k * 2.0**-53 * spin.TWO_PI
    assert np.array_equal(cut_mask(a, k), cosine_mask(angle, phi))
    assert np.array_equal(spin_component(a, phi) == 1, cosine_mask(angle, phi))


@pytest.mark.parametrize("a", [7.0, -3.0, 100.0])
def test_plus_mask_is_the_cosine_sign_on_raw_angles(a):
    angle, rng = Direction(a).angle, rng_for(1000 + int(a))
    phi = rng.uniform(-50.0, 50.0, 100_000)
    assert np.array_equal(spin_component(a, phi) == 1, cosine_mask(angle, phi))
    for bad in (math.inf, -math.inf, math.nan):  # no hidden direction: an error, not the spin of cos(nan)
        phi[0] = bad
        with pytest.raises(InvariantViolation, match="phi is not finite"):
            spin_component(a, phi)
    k = rng.integers(0, K, 100_000)
    assert np.array_equal(cut_mask(a, k), cosine_mask(angle, k * 2.0**-53 * spin.TWO_PI))


@pytest.mark.parametrize("seed", [0, 1, 42, 2026])
def test_plus_mask_is_the_cosine_sign_on_sampled_directions(seed):
    u = spin._stream(200_000, seed).random(200_000)
    phi, k = sample_phi(200_000, seed), (u * K).astype(np.int64)
    assert np.array_equal(phi, u * spin.TWO_PI)
    for degrees in (0.0, 10.0, 60.0, 90.0, 135.0, 180.0, 270.0, 359.9):
        a = Direction.from_degrees(degrees)
        assert np.array_equal(cut_mask(a, k), cosine_mask(a.angle, phi)), degrees


# ---------------------------------------------------------------------------
# the streamed draw: blocks change no number and bound the memory


def whole_draw_report(a, b, n, seed):
    """``comparison_report`` on the whole draw at once, the reference of the streamed counts; a non-finite angle
    is rejected before the draw."""
    if any(math.isnan(d.angle if isinstance(d, Direction) else Direction(d).angle) for d in (a, b)):
        raise InvariantViolation("state vector contains non-finite entries")
    phi = sample_phi(n, seed)
    plus_a, plus_b = spin_component(a, phi) == 1, spin_component(b, phi) == 1
    count_a = int(np.count_nonzero(plus_a))
    if count_a == 0:
        raise DegenerateConditioning("no sample produced spin +1 along the first direction")
    analytic, quantum = classical_conditional_analytic(a, b), quantum_conditional(a, b)
    return SpinComparison(
        classical_estimate=int(np.count_nonzero(plus_a & plus_b)) / count_a,
        classical_analytic=analytic,
        quantum=quantum,
        gap=quantum - analytic,
        p_plus_a=count_a / n,
        p_plus_b=int(np.count_nonzero(plus_b)) / n,
    )


def outcome(report, *args):
    try:
        return report(*args)
    except (ValueError, DegenerateConditioning) as exc:
        return type(exc), str(exc)


DIRECTION_PAIRS = [
    (Direction(0.9), Direction(0.9)),  # a = b
    (Direction(0.0), Direction.from_degrees(180.0)),
    (Direction(0.3), Direction.from_degrees(100.0)),
    (7.0, 8.1),  # raw angles >= 2*pi, read as their Directions
]


@pytest.mark.parametrize("block", [1, 7, spin._BLOCK])
def test_blocks_do_not_change_the_comparison(block, monkeypatch):
    monkeypatch.setattr(spin, "_BLOCK", block)
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        for seed in (0, 1, 2026):
            for a, b in DIRECTION_PAIRS:
                got = outcome(comparison_report, a, b, n, seed)
                assert got == outcome(whole_draw_report, a, b, n, seed), (n, seed, a, b)
                assert type(got) is not SpinComparison or all(type(v) is float for v in vars(got).values())


def test_comparison_memory_is_bounded_by_the_block():
    tracemalloc.start()
    try:
        comparison_report(Direction(0.0), Direction.from_degrees(60.0), 2_000_000, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


SPIN_REPORTS = {
    ("60", "42"): """\
query 1: spin_marginals
  samples   1000000
  p_plus_a  0.500587000000
  p_plus_b  0.499069000000

query 2: spin_comparison
  delta_degrees       60.0000000000
  samples             1000000
  classical_estimate  0.665304932010
  classical_analytic  0.666666666667
  quantum             0.750000000000
  gap                 0.0833333333333
""",
    ("17.5", "7"): """\
query 1: spin_marginals
  samples   1000000
  p_plus_a  0.499878000000
  p_plus_b  0.499258000000

query 2: spin_comparison
  delta_degrees       17.5000000000
  samples             1000000
  classical_estimate  0.901940073378
  classical_analytic  0.902777777778
  quantum             0.976858475374
  gap                 0.0740806975963
""",
    ("135", "2026"): """\
query 1: spin_marginals
  samples   1000000
  p_plus_a  0.499135000000
  p_plus_b  0.500571000000

query 2: spin_comparison
  delta_degrees       135.000000000
  samples             1000000
  classical_estimate  0.250948140283
  classical_analytic  0.250000000000
  quantum             0.146446609407
  gap                 -0.103553390593
""",
}


@pytest.mark.parametrize("delta, seed", list(SPIN_REPORTS))
def test_spin_demo_report_text_is_pinned(delta, seed, capsys):
    from qdecision.cli import main

    assert main(["demo", "spin", "--delta-degrees", delta, "--seed", seed]) == 0
    out = capsys.readouterr().out
    head = f"engine_version: {__version__}\ncontext: spin-demo\ndimension: 2\nseed: {seed}\n\n"
    assert out.startswith(head + SPIN_REPORTS[(delta, seed)] + "\ntolerances:\n")
