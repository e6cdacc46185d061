"""``format_number`` in one positional format is the hand-assembled form it replaced, on every finite float.

The rounding to 12 significant digits is ``.11e``'s either way. Below 10**12
the positional form is ``f"{x:#.{11 - e}f}"``, which rounds at the same
decimal place; at or above it, the ``.11e`` digits followed by zeros.
"""

import math

import numpy as np
import pytest

from qdecision.report import format_number

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def frozen_format_number(x: float) -> str:
    """``format_number`` while it assembled the positional form from the ``.11e`` digits by hand."""
    x = float(x)
    if x == 0.0:
        return "0." + "0" * 12
    mantissa, exponent = f"{x:.11e}".split("e")
    negative = mantissa.startswith("-")
    digits = mantissa.lstrip("-").replace(".", "")
    e = int(exponent)
    if e < 0:
        body = "0." + "0" * (-e - 1) + digits
    elif e >= 12:
        body = digits + "0" * (e - 12 + 1)
    else:
        body = digits[: e + 1] + "." + digits[e + 1 :]
    return ("-" if negative else "") + body


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 9.9999999999995, 999999999999.4, 999999999999.5, 99999999999.95,
         math.nextafter(1e12, 0.0), 1e12, -999999999999.5, 0.1, 1 / 3, 1e-10, 123456789012.0]


@pytest.mark.parametrize("x", EDGES, ids=repr)
def test_format_number_is_the_hand_assembled_form_at_the_edges(x):
    assert format_number(x) == frozen_format_number(x)


@hypothesis.settings(max_examples=2_000, deadline=None)
@hypothesis.given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_number_is_the_hand_assembled_form(x):
    assert format_number(x) == frozen_format_number(x)


def test_format_number_is_the_hand_assembled_form_on_many_digits():
    """Seeded floats of every decimal size from 1e-30 to 1e30, with halves at the 12th digit for rounding carries."""
    rng = np.random.default_rng(2700)
    for e in range(-30, 31):
        for m in rng.uniform(1.0, 10.0, size=400):
            for x in (m * 10.0**e, -m * 10.0**e, (math.floor(m * 1e11) + 0.5) * 10.0 ** (e - 11)):
                assert format_number(x) == frozen_format_number(x), x
