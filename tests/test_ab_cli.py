"""``tools/ab_cli.py``: one round of a benchmark workload on two trees, interleaved, with equal output required."""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "ab_cli.py"


def _run(parent: Path, change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change), "--seed", "3", "--reps", "1"],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_against_itself_prints_every_kind_and_the_round():
    done = _run(ROOT, ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for kind in ("medical", "explicit", "density", "d16", "malformed", "text", "csv", "structured"):
        assert any(line.startswith(kind + " ") for line in lines), kind
    assert "round: 360 ops, identical output on both trees, 1 repeats, seed 3" in lines
    # an even count: the median averages two ops, each named by its document kind and format rows
    op = r"op \d+ \((medical|explicit|density|d16|malformed), (text|csv|structured)\)"
    assert re.fullmatch(rf"latency_p50_ms is set by  parent: {op} and {op}  change: {op} and {op}", lines[-3]), lines[-3]
    assert lines[-2].startswith("latency_p50_ms  parent ")
    assert lines[-1].startswith("throughput_ops_s  parent ")


def test_the_median_ops_are_those_statistics_median_reads():
    sys.path[:0] = [str(ROOT / "tools")]
    try:
        import ab_cli
    finally:
        del sys.path[0]
    for times in ([0.3], [0.5, 0.1, 0.4], [0.2, 0.9, 0.1, 0.4], [0.7, 0.2, 0.5, 0.1, 0.6, 0.3]):
        ops = ab_cli._median_ops(times)
        assert len(ops) == 2 - len(times) % 2
        assert statistics.median(times) == sum(times[i] for i in ops) / len(ops)
    assert ab_cli._median_ops([0.5, 0.1, 0.4]) == [2] and ab_cli._median_ops([0.2, 0.9, 0.1, 0.4]) == [0, 3]


def test_trees_whose_reports_differ_exit_1(tmp_path):
    shutil.copytree(ROOT / "src" / "qdecision", tmp_path / "src" / "qdecision", ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "qdecision" / "report.py"
    report.write_text(report.read_text(encoding="utf-8").replace('"true" if v else "false"', '"yes" if v else "no"'), encoding="utf-8")
    done = _run(ROOT, tmp_path)
    assert done.returncode == 1
    assert "the trees differ" in done.stdout


def test_each_rebuilt_command_line_reads_the_document_of_its_op(tmp_path):
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tools")]
    try:
        import ab_cli
        import workloads
    finally:
        del sys.path[:2]
    workload = workloads.build("analyze_mix", 3, str(tmp_path))
    argvs = ab_cli._command_lines(workload, str(tmp_path))
    assert len(argvs) == len(workload.ops)
    for op, argv in zip(workload.ops, argvs):
        assert argv[0] == "analyze" and argv[2:] == ["--format", op.tags["fmt"]]
        document = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
        assert document["dimension"] == op.tags["d"]


def test_bulk_numeric_tree_against_itself_prints_every_tag_and_the_p50():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload", "bulk_numeric", "--seed", "3", "--reps", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    for tag in ("tomography r8 exact", "tomography r8 noisy", "tomography r16 exact", "tomography r32 noisy", "spin"):
        assert any(line.startswith(tag + " ") for line in lines), tag
    assert "round: 169 ops, identical output on both trees, 1 repeats, seed 3" in lines
    # 136 of the 169 ops are r = 8 round trips, so the median op is one of them on each tree
    setter = r"op \d+ \(tomography r8 (exact|noisy)\)"
    assert re.fullmatch(rf"latency_p50_ms is set by  parent: {setter}  change: {setter}", lines[-3]), lines[-3]
    assert lines[-2].startswith("latency_p50_ms  parent ")
    assert lines[-1].startswith("throughput_ops_s  parent ")


def test_engine_calls_tree_against_itself_prints_every_kind_and_dimension():
    # the tree is imported under two package names, so equal reports are instances of two distinct classes
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(ROOT), str(ROOT), "--workload", "engine_calls", "--seed", "3", "--reps", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    for kind in ("outcome_distribution", "expectation_of_function", "collapse", "conjunction_report", "sure_thing_check"):
        for d in (2, 8, 16):
            assert any(line.startswith(f"{kind} d{d} ") for line in lines), (kind, d)
    assert "round: 576 ops, identical output on both trees, 1 repeats, seed 3" in lines
    assert lines[-2].startswith("latency_p50_ms  parent ")
    assert lines[-1].startswith("throughput_ops_s  parent ")


def test_engine_results_of_two_trees_are_equal_by_value_and_differ_by_one_bit():
    import dataclasses
    import math

    import numpy as np

    from qdecision import StateVector
    from qdecision.phenomena import ConjunctionReport

    sys.path[:0] = [str(ROOT / "tools")]
    try:
        import ab_cli
    finally:
        del sys.path[0]
    # the other tree's class: same name and fields, but not the same class
    Other = dataclasses.make_dataclass("ConjunctionReport", [f.name for f in dataclasses.fields(ConjunctionReport)])
    values = [0.25, 0.5, 0.125, 0.0625, False, 0.0625]
    report = ConjunctionReport(*values)
    assert ab_cli._same(report, Other(*values))
    assert not ab_cli._same(report, Other(*values[:2], math.nextafter(0.125, 1.0), *values[3:]))
    psi = StateVector([0.6, 0.8])
    assert ab_cli._same(psi, StateVector([0.6, 0.8]))
    assert not ab_cli._same(psi, StateVector([0.6, math.nextafter(0.8, 1.0)]))
    assert ab_cli._same(0.5, np.float64(0.5)) and not ab_cli._same(0.5, math.nextafter(0.5, 1.0))
    # any other result is compared by ==, not taken for a dataclass
    assert ab_cli._same(None, None) and ab_cli._same({"p": 1}, {"p": 1}) and not ab_cli._same(1, 2)


def test_reconstructions_differing_only_in_a_zeros_sign_differ():
    import numpy as np

    from qdecision import DensityOperator, DensityReconstruction, StateVector

    sys.path[:0] = [str(ROOT / "tools")]
    try:
        import ab_cli
    finally:
        del sys.path[0]
    plus = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    minus = plus.copy()
    minus[0, 1] = complex(0.0, -0.0)
    assert np.array_equal(plus, minus)  # equal by value, so == and np.array_equal cannot tell them apart

    def rec(matrix, residual=0.0):
        return DensityReconstruction(DensityOperator._trusted(matrix=matrix.copy()), residual, False, 0.5, 9.0)

    assert ab_cli._same(rec(plus), rec(plus))
    assert not ab_cli._same(rec(plus), rec(minus))
    assert not ab_cli._same(rec(plus), rec(plus, residual=-0.0))
    nan = rec(plus, residual=float("nan"))
    assert ab_cli._same(nan, rec(plus, residual=float("nan")))  # nan equals itself bit for bit
    psi = StateVector._trusted(amplitudes=np.array([1.0, 0.0], dtype=complex))
    assert not ab_cli._same(psi, StateVector._trusted(amplitudes=np.array([1.0, complex(0.0, -0.0)])))


def test_numbers_and_report_fields_are_compared_bit_for_bit():
    import dataclasses
    import math

    import numpy as np

    from qdecision.phenomena import ConjunctionReport, TotalProbabilityReport

    sys.path[:0] = [str(ROOT / "tools")]
    try:
        import ab_cli
    finally:
        del sys.path[0]
    nan = float("nan")
    assert not ab_cli._same(0.0, -0.0) and not ab_cli._same(np.float64(0.0), -0.0)
    assert ab_cli._same(nan, nan) and ab_cli._same(np.float64(nan), nan)
    assert not ab_cli._same(1, 1.0)  # a float is never equal to an int, whatever its value

    Other = dataclasses.make_dataclass("ConjunctionReport", [f.name for f in dataclasses.fields(ConjunctionReport)])
    values = [0.25, 0.0, 0.125, 0.0, False, 0.125]
    assert ab_cli._same(ConjunctionReport(*values), Other(*values))
    assert not ab_cli._same(ConjunctionReport(*values), Other(*values[:3], -0.0, *values[4:]))
    assert ab_cli._same(ConjunctionReport(*values[:3], nan, *values[4:]), Other(*values[:3], nan, *values[4:]))
    assert not ab_cli._same(ConjunctionReport(*values), Other(*values[:4], True, values[5]))

    # the floats in a tuple field too: one term's zero of the other sign
    Total = dataclasses.make_dataclass("TotalProbabilityReport", [f.name for f in dataclasses.fields(TotalProbabilityReport)])
    fields = [0.5, 0.5, 0.0, (0.0, 1.0), (0.5, 0.0)]
    report = TotalProbabilityReport(*fields)
    assert ab_cli._same(report, Total(*fields))
    assert not ab_cli._same(report, Total(*fields[:4], (0.5, -0.0)))
    assert not ab_cli._same(report, Total(*fields[:4], (0.5,)))
    assert not ab_cli._same(report, Total(*fields[:4], (0.5, math.nextafter(0.0, 1.0))))
