"""The ``analyze`` command line read without argparse: the same namespace argparse builds, or argparse itself.

``cli._analyze_args`` reads only the spelling the module docstring documents,
``analyze FILE`` then ``--format F`` and ``--seed N`` pairs. For every other
command line it returns None and ``main`` hands the line to argparse, which
stays the one renderer of help text and usage errors.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qdecision.cli import _analyze_args, _analyze_defaults, build_parser, main
from qdecision.demos import medical_document
from qdecision.report import REPORT_FORMATS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

BEYOND_DIGITS = "7" * 5000  # beyond the int-to-string digit limit: int() raises ValueError
SEEDS = ["0", "17", "-1", "٣", "²", "1_0", " 7", BEYOND_DIGITS]  # ٣ is int 3; ² passes isdigit, not int()
TOKENS = [
    "analyze", "demo", "", "-x.json", "--", "doc.json",
    "--format", *REPORT_FORMATS, "bogus", "--format=csv", "--form",
    "--seed", *SEEDS,
    "-h", "--tolerances",
]


def _argparse_reads(argv):
    """``build_parser().parse_args(argv)``, or None where argparse exits (help, usage error); its output is dropped."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


def _pairs(values):
    """``--format`` and ``--seed`` flags, each followed by one of ``values``."""
    return st.lists(st.tuples(st.sampled_from(["--format", "--seed"]), values), max_size=4).map(
        lambda pairs: [token for pair in pairs for token in pair]
    )


COMMAND_LINES = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=7),
    # the documented spelling, its values drawn from every token, so that many lines reach the reader's own path
    st.builds(
        lambda file, rest: ["analyze", file, *rest],
        st.sampled_from(TOKENS),
        _pairs(st.sampled_from([*REPORT_FORMATS, *SEEDS, *TOKENS])),
    ),
)


@hypothesis.given(COMMAND_LINES)
@hypothesis.example(["analyze", "doc.json", "--seed", "²"])
@hypothesis.example(["analyze", "doc.json", "--seed", BEYOND_DIGITS])
@hypothesis.example(["analyze", "doc.json", "--seed", "-1"])
@hypothesis.example(["analyze", "", "--format", "csv", "--seed", "٣", "--format", "structured", "--seed", "17"])
def test_the_reader_builds_argparses_namespace_or_leaves_the_line_to_argparse(argv):
    args = _analyze_args(argv)
    if args is not None:
        parsed = _argparse_reads(argv)
        assert parsed is not None, "the reader accepted a line argparse refuses"
        assert vars(args) == vars(parsed)


@pytest.mark.parametrize("seed", ["²", BEYOND_DIGITS], ids=["superscript-two", "beyond-digit-limit"])
def test_a_seed_int_cannot_read_is_argparses_usage_error(seed, capsys):
    argv = ["analyze", "doc.json", "--seed", seed]
    assert _analyze_args(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: qdecision")
    assert err.splitlines()[-1].startswith("scenario error: argument --seed: invalid int value: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{file}"],
        ["analyze", "{file}", "--format", "csv", "--seed", "3"],
        ["analyze", "{file}", "--seed", "3", "--format", "structured"],
    ],
    ids=["bare", "csv-seed", "seed-structured"],
)
def test_the_documented_analyze_line_never_reaches_argparse(argv, tmp_path, monkeypatch, capsys):
    path = tmp_path / "medical.json"
    path.write_text(medical_document(), encoding="utf-8")
    argv = [token.format(file=path) for token in argv]
    assert main(argv) == 0
    expected = capsys.readouterr()
    assert expected.out and not expected.err

    def refuse(*_):
        raise AssertionError("argparse read a documented analyze line")

    _analyze_defaults()  # the one argparse parse the reader copies its defaults from, made before the patch
    monkeypatch.setattr(build_parser(), "parse_args", refuse)
    assert main(argv) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["analyze"],
        ["analyze", "doc.json", "--format"],
        ["analyze", "doc.json", "other.json", "x"],
        ["analyze", "doc.json", "--form", "csv"],
        ["analyze", "doc.json", "--format=csv"],
        ["analyze", "--format", "csv", "doc.json"],
        ["analyze", "-x.json"],
        ["analyze", "doc.json", "--seed", "-1"],
        ["analyze", "doc.json", "-h", "x"],
        ["demo", "medical"],
        ["--tolerances"],
    ],
    ids=repr,
)
def test_every_other_line_is_left_to_argparse(argv):
    assert _analyze_args(argv) is None
