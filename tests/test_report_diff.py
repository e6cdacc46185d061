"""``tools/report_diff.py diff --rows``: changes summarized by report row, in all three formats."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TEXT = "context: c\n\nquery 1: reconstruct_check\n  residual     {res}\n  psd_clipped  {flag}\n\ntolerances:\n  NOISE_BOUND  0.000001\n"
CSV = "query_index,name,value\n0,context,c\n1,kind,reconstruct_check\n1,residual,{res}\n"
STRUCTURED = (
    '{{\n  "context": "c",\n  "tolerances": {{\n    "NOISE_BOUND": {tol}\n  }},\n  "results": [\n    {{\n'
    '      "kind": "reconstruct_check",\n      "outputs": {{\n        "residual": {res}\n      }}\n    }}\n  ]\n}}\n'
)


def recording(path, tree, cases):
    path.write_text(json.dumps({"tree": tree, "cases": cases}), encoding="utf-8")
    return path


def test_rows_name_each_changed_row_with_its_largest_change(report_diff, tmp_path, capsys):
    old = recording(tmp_path / "old.json", "/old", {
        "same": [0, CSV.format(res="0.5"), ""],
        "t": [0, TEXT.format(res="0.001", flag="false"), ""],
        "c": [0, CSV.format(res="0.001"), ""],
        "s": [0, STRUCTURED.format(tol="0.000001", res="0.001"), ""],
        "exit": [0, "", ""],
        "gone": [0, "", ""],
    })
    new = recording(tmp_path / "new.json", "/new", {
        "same": [0, CSV.format(res="0.5"), ""],
        "t": [0, TEXT.format(res="0.0015", flag="true"), ""],
        "c": [0, CSV.format(res="0.003"), ""],
        "s": [0, STRUCTURED.format(tol="0.000002", res="0.0012"), ""],
        "exit": [1, "", "scenario error: x\n"],
    })
    assert report_diff.diff(old, new, rows=True) == 1
    out = capsys.readouterr().out.splitlines()
    assert "reconstruct_check.residual: 3 cases, largest |delta| 0.002" in out
    assert "tolerance.NOISE_BOUND: 1 cases, largest |delta| 1e-06" in out
    assert "reconstruct_check.psd_clipped: 1 cases, no numeric change" in out
    assert "(case): 2 cases, no numeric change" in out
    assert "3 non-numeric changes:" in out
    assert "    t: '  psd_clipped  false' -> '  psd_clipped  true'" in out
    assert "    exit: exit 0 -> 1, stderr '' -> 'scenario error: x\\n'" in out
    assert "    gone: only in the old recording" in out
    assert out[-1] == "1 of 6 cases identical, 5 differ"


def test_rows_of_identical_recordings_exit_0(report_diff, tmp_path, capsys):
    cases = {"t": [0, TEXT.format(res="0.001", flag="false"), ""]}
    old, new = recording(tmp_path / "old.json", "/old", cases), recording(tmp_path / "new.json", "/new", cases)
    assert report_diff.diff(old, new, rows=True) == 0
    assert capsys.readouterr().out.splitlines() == ["1 of 1 cases identical, 0 differ"]
