"""The one-call conversion of vectors, densities and eigenvector groups agrees with the per-entry path.

``scenario._pair_array`` converts a whole list of [re, im] pairs at once and
hands anything it does not accept to the per-entry path. The oracle below is
that per-entry path as it stood before the fast path existed: on every input
the parser must return the same array or raise the same error, at the same
location and with the same message.
"""

import numpy as np
import pytest

from qdecision import scenario
from qdecision.errors import ScenarioValidationError

from corpus import malformed_documents

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


# ---------------------------------------------------------------------------
# the per-entry conversion, kept as the oracle


def _fail(location, message):
    raise ScenarioValidationError(location, message)


def _as_array(node, location):
    if not isinstance(node, list):
        _fail(location, f"expected an array, got {type(node).__name__}")
    return node


def _as_number(node, location):
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(location, f"expected a number, got {type(node).__name__}")
    try:
        return float(node)
    except OverflowError:
        _fail(location, "integer literal is beyond the range of a float")


def _as_complex(node, location):
    arr = _as_array(node, location)
    if len(arr) != 2:
        _fail(location, f"a complex number is a [re, im] pair, got {len(arr)} entries")
    return complex(_as_number(arr[0], location + "[0]"), _as_number(arr[1], location + "[1]"))


def oracle_vector(node, location):
    arr = _as_array(node, location)
    return np.array([_as_complex(x, f"{location}[{i}]") for i, x in enumerate(arr)])


def oracle_matrix(node, location):
    arr = _as_array(node, location)
    rows = [oracle_vector(row, f"{location}[{i}]") for i, row in enumerate(arr)]
    if not rows or any(r.size != rows[0].size for r in rows):
        _fail(location, "matrix rows are empty or ragged")
    return np.vstack(rows)


def oracle_group(node, location, dimension):
    vectors = [oracle_vector(vec, f"{location}[{k}]") for k, vec in enumerate(_as_array(node, location))]
    if any(v.size != dimension for v in vectors):
        _fail(location, f"eigenvectors must have {dimension} components")
    return vectors


def _outcome(convert, *args):
    """('ok', float view of the complex result) or ('error', location, message)."""
    try:
        result = np.array(convert(*args), dtype=complex)
    except ScenarioValidationError as exc:
        return "error", exc.location, str(exc)
    return "ok", result.view(float).reshape(result.shape + (2,))


def assert_same(new, old, *args):
    got, want = _outcome(new, *args), _outcome(old, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
    else:
        assert got[1].shape == want[1].shape
        assert np.array_equal(got[1], want[1], equal_nan=True)


# ---------------------------------------------------------------------------
# inputs: half of them all well-formed, so the gate passes; the other half mixed with
# every kind of entry the gate must refuse

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, 2**64 + 1, -(2**63) - 1]),
)
MISFITS = st.one_of(st.booleans(), st.none(), st.text(max_size=2), st.just({}))
SCALARS = st.one_of(NUMBERS, MISFITS)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
ODD_ENTRIES = st.one_of(
    st.lists(st.one_of(NUMBERS, st.booleans()), min_size=2, max_size=2),  # true or false in a pair
    st.lists(st.one_of(NUMBERS, st.sampled_from([10**400, -(10**400)])), min_size=2, max_size=2),
    st.lists(SCALARS, min_size=1, max_size=3),  # 1- and 3-element pairs, strings and null
    st.lists(st.lists(NUMBERS, max_size=2), min_size=2, max_size=2),  # a pair of lists
    SCALARS,  # a bare number or misfit where a pair belongs
)
ENTRIES = st.one_of(PAIRS, PAIRS, PAIRS, ODD_ENTRIES)


def _vectors(width=None, entries=ENTRIES):
    return st.lists(entries, min_size=width or 0, max_size=5 if width is None else width)


def _matrices(width, entries=ENTRIES):
    """Rows of one length, so that the whole matrix can pass the gate."""
    return st.lists(_vectors(width, entries), max_size=4)


VECTORS = st.one_of(_vectors(entries=PAIRS), _vectors(), SCALARS)
MATRICES = st.one_of(
    st.integers(0, 4).flatmap(lambda n: _matrices(n, PAIRS)),
    st.integers(0, 4).flatmap(_matrices),
    st.lists(st.one_of(_vectors(), SCALARS), max_size=4),  # ragged rows
    SCALARS,
)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(node=VECTORS)
def test_vector_matches_the_per_entry_path(node):
    assert_same(scenario._complex_vector, oracle_vector, node, "state.vector")


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(node=MATRICES)
def test_density_matches_the_per_entry_path(node):
    assert_same(scenario._complex_matrix, oracle_matrix, node, "state.density")


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(dimension=st.integers(2, 4), data=st.data())
def test_eigenvector_group_matches_the_per_entry_path(dimension, data):
    width = data.draw(st.one_of(st.just(dimension), st.integers(0, 5)))
    node = data.draw(st.one_of(_matrices(width, PAIRS), _matrices(width), MATRICES))
    location = "variables[0].eigenvectors[1]"

    def oracle_rows(*args):  # the per-entry rows as one k x dimension array; an empty group is 0 x dimension
        return np.reshape(oracle_group(*args), (-1, dimension))

    assert_same(scenario._eigenvector_group, oracle_rows, node, location, dimension)


def test_the_gate_takes_numbers_and_refuses_the_rest():
    assert np.array_equal(scenario._pair_array([[1, 2.5], [0, -1]]), [1 + 2.5j, -1j])
    assert scenario._pair_array([[[1, 0], [0, 0]], [[0, 0], [1, 0]]], nested=True).shape == (2, 2)
    for node in ([[True, 0]], [[0, False]], [[10**400, 0]], [[1, 0, 0]], [[1]], [[1, "0"]], [[None, 0]], [1.0, 0.0]):
        assert scenario._pair_array(node) is None, node
    for node in ([], [[[1, 0]], [[1, 0], [0, 0]]], [[[1, 0]], {}], [[[1, 0]], [[1, 0, 0]]]):
        assert scenario._pair_array(node, nested=True) is None, node


@pytest.mark.parametrize(
    "name, location, message",
    [
        ("vector_bool_in_pair", "state.vector[0][0]", "expected a number, got bool"),
        ("density_bool_entry", "state.density[0][1][1]", "expected a number, got bool"),
        ("density_integer_overflow", "state.density[1][1][0]", "integer literal is beyond the range of a float"),
        (
            "eigenvector_integer_overflow",
            "variables[0].eigenvectors[1][0][1][0]",
            "integer literal is beyond the range of a float",
        ),
        (
            "eigenvector_three_element_pair",
            "variables[0].eigenvectors[0][0][0]",
            "a complex number is a [re, im] pair, got 3 entries",
        ),
        ("eigenvector_group_wrong_length", "variables[0].eigenvectors[0]", "eigenvectors must have 2 components"),
    ],
)
def test_gate_misses_are_rejected_at_the_entry(name, location, message):
    with pytest.raises(ScenarioValidationError) as err:
        scenario.parse_scenario(dict(malformed_documents())[name])
    assert err.value.location == location
    assert str(err.value) == f"{location}: {message}"
