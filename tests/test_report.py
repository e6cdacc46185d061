"""Report formatting primitives."""

import pytest

from qdecision.report import REPORT_FORMATS, Report, QueryResult, emit_report, format_number


@pytest.mark.parametrize(
    "value,expected",
    [
        (0.75, "0.750000000000"),
        (1.0, "1.00000000000"),
        (0.0, "0.000000000000"),
        (-0.25, "-0.250000000000"),
        (160.0, "160.000000000"),
        (2.0 / 3.0, "0.666666666667"),
        (1e-10, "0.000000000100000000000"),
        (123456.789, "123456.789000"),
        (1.5e12, "1500000000000"),
        (123456789012345.0, "123456789012000"),
        (999999999999.95, "1000000000000"),  # rounding carries into a thirteenth digit
    ],
)
def test_format_number(value, expected):
    assert format_number(value) == expected


def test_format_number_is_locale_free_and_parsable():
    for x in (0.1, -3.7e-9, 81920.5, 2.0 / 3.0):
        rendered = format_number(x)
        assert "," not in rendered
        assert abs(float(rendered) - x) <= 1e-11 * max(1.0, abs(x))


def sample_report():
    block = QueryResult(
        1,
        "sequence",
        (("step_1", "q=1"),),
        (("probability", 0.75),),
        (("some_flag", True),),
    )
    return Report(
        engine_version="0.1.0", context="t", dimension=2, seed=0, results=(block,)
    )


def test_text_format_contains_aligned_block():
    text = emit_report(sample_report(), "text")
    assert "query 1: sequence" in text
    assert "probability  0.750000000000" in text


def test_csv_format_quotes_awkward_strings():
    block = QueryResult(1, "distribution", (("variable", 'odd,"name"'),), ())
    report = Report(
        engine_version="0.1.0", context="t", dimension=2, seed=0, results=(block,)
    )
    lines = emit_report(report, "csv").splitlines()
    assert any(line.startswith('1,variable,"odd,""name"""') for line in lines)


def test_structured_format_is_valid_json():
    import json

    tree = json.loads(emit_report(sample_report(), "structured"))
    assert tree["results"][0]["outputs"]["probability"] == 0.75
    assert tree["results"][0]["flags"]["some_flag"] is True


@pytest.mark.parametrize("fmt", ["bogus", "TEXT", "", None, ["text"]], ids=repr)
def test_an_unknown_format_is_a_value_error_listing_the_formats_in_order(fmt):
    """One table gives the emitters and ``REPORT_FORMATS``; a format outside it, unhashable ones too, is refused."""
    assert REPORT_FORMATS == ("text", "csv", "structured")
    report = Report("0.1.0", "ctx", 2, 0, ())
    with pytest.raises(ValueError) as exc:
        emit_report(report, fmt)
    assert str(exc.value) == f"unknown report format {fmt!r} (choose from ('text', 'csv', 'structured'))"
