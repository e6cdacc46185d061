"""``tools/ab_cli.py``: one round of a benchmark workload on two trees, interleaved, with equal output required."""

import json
import shutil
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
    assert lines[-1].startswith("throughput_ops_s  parent ")


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
    assert lines[-2].startswith("latency_p50_ms  parent ")
    assert lines[-1].startswith("throughput_ops_s  parent ")
