"""Record the CLI's output on a fixed set of cases, and diff two recordings.

    python tools/report_diff.py record TREE OUT.json
    python tools/report_diff.py digest TREE OUT.txt
    python tools/report_diff.py diff OLD.json NEW.json
    python tools/report_diff.py diff --rows OLD.json NEW.json

``record`` imports qdecision from ``TREE/src`` (any checkout of this
repository) and runs every case in-process through ``qdecision.cli.main``,
storing the exit code, stdout and stderr of each. The case inputs always
come from the checkout this script lives in, so two recordings of
different trees see the same documents:

- the ``analyze_mix`` documents of bench seeds 1-4 (``bench/workloads.build``),
  each in the three report formats; after each seed's documents come the
  argparse paths (help at each level, no arguments, ``demo`` without a
  name, an unknown command, a bad ``--format`` choice, a non-integer
  ``--dim``, ``analyze`` without a file), so the analyze cases that follow
  run on a parser that has just raised ``SystemExit``;
- ``generate_valid_document(0..59)`` of ``tests/corpus.py`` in the three
  formats, ``generate_density_chain_document(0..19)`` (the chain query
  kinds on density states) in the three formats, and every document of the
  malformed corpus;
- ``analyze`` of two paths that cannot be read as UTF-8 text: a directory
  and a file that is not UTF-8. They are given relative to the working
  directory, which ``record`` sets to its scratch directory, so the path in
  the error message is the same in every recording;
- ``demo medical``, ``demo spin`` (also with non-finite ``--delta-degrees``,
  at 7 angles x 3 seeds, and with ``--samples`` 0, -5, 10^7 + 1 and 10^30,
  outside its range), ``demo reconstruct --dim 0..8`` for seeds 1, 7
  and 123 in the three formats, ``--dim 16`` and ``--dim 32`` (the dimensions
  ``bulk_numeric`` reconstructs at) for the same seeds in text, a negative
  ``--seed`` on both seeded demos, ``demo reconstruct --dim 33``, and
  ``--tolerances``. Cases at one dimension run back to back, so every seed
  after the first reuses the cached ``ic_effect_basis`` of its dimension.

Help and usage text is wrapped at ``COLUMNS=80``, so recordings made in
different terminals compare. Every warning is shown, each time, on stderr.
The working directory, ``COLUMNS`` and the warning filters are restored
after the cases run.

``digest`` writes one line per case: the first 16 hex digits of the SHA-256
of its exit code, stdout and stderr (with the warning lines below dropped),
then the case name, under a header naming the Python and numpy versions.
``tests/golden/report_digests.txt`` is such a manifest, and
``tests/test_golden.py`` holds the tree it runs in to it.

``diff`` compares two recordings case by case. Warning lines that name a
file of the recorded tree (numpy's RuntimeWarning, with the source line
printed under it) are dropped first: they carry the tree's path and line
numbers. It prints every differing case and exits 1 if there is one.
With ``--rows`` it prints, instead of each case, one line per report row
that changed (``reconstruct_check.residual``, ``tolerance.NOISE_BOUND``, or
a header name): how many cases change it and the largest |delta| of its
numeric values. Every other change (a non-numeric value, lines added or
removed, exit code or stderr, a case on one side only) is listed in full.
The exit code is the same as without ``--rows``.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
import traceback
import warnings
from contextlib import chdir, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("text", "csv", "structured")
BENCH_SEEDS = (1, 2, 3, 4)
VALID_SEEDS = range(60)
DENSITY_CHAIN_SEEDS = range(20)
RECONSTRUCT_SEEDS = (1, 7, 123)
SPIN_DELTAS = ("0", "10", "45", "90", "135", "180", "359.9")
SPIN_SEEDS = (1, 42, 2026)
SPIN_SAMPLES_OUT_OF_RANGE = ("0", "-5", "10000001", "1" + "0" * 30)
ARGPARSE_PATHS = {
    "help": ["--help"],
    "analyze-help": ["analyze", "--help"],
    "demo-help": ["demo", "--help"],
    "demo-spin-help": ["demo", "spin", "--help"],
    "no-arguments": [],
    "demo-no-name": ["demo"],
    "unknown-command": ["bogus"],
    "format-bogus": ["analyze", "doc.json", "--format", "bogus"],
    "dim-not-integer": ["demo", "reconstruct", "--dim", "x"],
    "analyze-no-file": ["analyze"],
}


def _import_tree(tree: Path):
    sys.path[:0] = [str(tree / "src")]
    sys.path += [str(ROOT / "bench"), str(ROOT / "tests")]
    import qdecision.cli

    src = (tree / "src").resolve()
    if src not in Path(qdecision.cli.__file__).resolve().parents:
        sys.exit(f"qdecision was imported from {qdecision.cli.__file__}, not from {src}")
    return qdecision.cli


def _cases(workdir: str):
    """Yield (name, argv) for every case, writing documents into ``workdir``."""
    from corpus import generate_density_chain_document, generate_valid_document, malformed_documents
    from workloads import build

    def analyze(name: str, text: str, formats=FORMATS):
        path = os.path.join(workdir, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for fmt in formats:
            yield f"{name}/{fmt}", ["analyze", path, "--format", fmt]

    for seed in BENCH_SEEDS:
        with tempfile.TemporaryDirectory() as bench_dir:
            documents = build("analyze_mix", seed, bench_dir).inputs["documents"]
        for n, text in enumerate(documents):
            yield from analyze(f"analyze_mix/seed{seed}/doc{n:03d}", text)
        for name, argv in ARGPARSE_PATHS.items():
            yield f"argparse/seed{seed}/{name}", argv
    for seed in VALID_SEEDS:
        yield from analyze(f"valid/{seed}", generate_valid_document(seed))
    for seed in DENSITY_CHAIN_SEEDS:
        yield from analyze(f"density_chain/{seed}", generate_density_chain_document(seed))
    for name, text in malformed_documents():
        yield from analyze(f"malformed/{name}", text, formats=("text",))
    os.mkdir(os.path.join(workdir, "directory.json"))
    with open(os.path.join(workdir, "not-utf8.json"), "wb") as fh:
        fh.write(b"\xff\xfe{}")
    for name in ("directory.json", "not-utf8.json"):
        yield f"unreadable/{name}", ["analyze", name]
    yield "demo/medical", ["demo", "medical"]
    yield "demo/spin", ["demo", "spin"]
    for value in ("nan", "inf", "-inf"):
        yield f"demo/spin/delta={value}", ["demo", "spin", f"--delta-degrees={value}"]
    for delta in SPIN_DELTAS:
        for seed in SPIN_SEEDS:
            yield f"demo/spin/delta={delta}/seed{seed}", ["demo", "spin", f"--delta-degrees={delta}", "--seed", str(seed)]
    for samples in SPIN_SAMPLES_OUT_OF_RANGE:
        yield f"demo/spin/samples={samples}", ["demo", "spin", "--samples", samples]
    for demo in ("spin", "reconstruct"):
        yield f"demo/{demo}/seed-1", ["demo", demo, "--seed", "-1"]
    yield "demo/reconstruct/dim33", ["demo", "reconstruct", "--dim", "33"]
    for dim in range(9):
        for seed in RECONSTRUCT_SEEDS:
            for fmt in FORMATS:
                argv = ["demo", "reconstruct", "--dim", str(dim), "--seed", str(seed), "--format", fmt]
                yield f"demo/reconstruct/dim{dim}/seed{seed}/{fmt}", argv
    for dim in (16, 32):
        for seed in RECONSTRUCT_SEEDS:
            argv = ["demo", "reconstruct", "--dim", str(dim), "--seed", str(seed), "--format", "text"]
            yield f"demo/reconstruct/dim{dim}/seed{seed}/text", argv
    yield "tolerances", ["--tolerances"]


def _run(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` as Python's default prints, even where a test harness collects warnings instead."""
    (file or sys.stderr).write(warnings.formatwarning(message, category, filename, lineno, line))


def recorded(cli) -> dict[str, tuple[int | None, str, str]]:
    """(exit code, stdout, stderr) of every case, run through ``cli.main``."""
    with patch.dict(os.environ, COLUMNS="80"), warnings.catch_warnings():
        # show every warning every time, so a case's stderr does not depend on the cases run before it
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        with tempfile.TemporaryDirectory() as workdir, chdir(workdir):
            return {name: _run(cli, argv) for name, argv in _cases(workdir)}


def record(tree: Path, out_path: Path) -> int:
    cases = recorded(_import_tree(tree.resolve()))
    tree_src = str((tree / "src").resolve())
    out_path.write_text(json.dumps({"tree": tree_src, "cases": cases}, indent=1), encoding="utf-8")
    print(f"recorded {len(cases)} cases from {tree_src} in {out_path}")
    return 0


def versions() -> str:
    import numpy

    return f"python {platform.python_version()}, numpy {numpy.__version__}"


def case_digest(code: int | None, out: str, err: str) -> str:
    """16 hex digits of the SHA-256 of a case's exit code, stdout and stderr."""
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()[:16]


def digests(cli) -> dict[str, str]:
    """Each case's digest, with the warnings that name a file of the tree ``cli`` comes from dropped."""
    tree_src = str(Path(cli.__file__).resolve().parents[1])
    return {name: case_digest(code, out, _strip_tree_warnings(err, tree_src)) for name, (code, out, err) in recorded(cli).items()}


def write_manifest(path: Path, cases: dict[str, str]) -> None:
    lines = [f"# report_diff digests: {versions()}", *(f"{digest} {name}" for name, digest in cases.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: Path) -> tuple[str, dict[str, str]]:
    """The versions a manifest was recorded with, and its digest of each case."""
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    return header.split(": ", 1)[1], {name: digest for digest, name in (line.split(" ", 1) for line in lines)}


def _family(name: str) -> str:
    """The group a case belongs to: ``analyze_mix/seed1``, ``demo/spin``, ``valid``, ``density_chain`` and so on."""
    parts = name.split("/")
    return "/".join(parts[:2] if parts[0] in ("analyze_mix", "argparse", "demo") else parts[:1])


def mismatch(expected: tuple[str, dict[str, str]], got: dict[str, str]) -> str | None:
    """None when every case has its expected digest; else the changed, added and missing cases by family, and the
    versions of both recordings."""
    recorded_with, want = expected
    changed: dict[str, list[str]] = {}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            note = " (new)" if name not in want else " (gone)" if name not in got else ""
            changed.setdefault(_family(name), []).append(name + note)
    if not changed:
        return None
    lines = [f"{sum(map(len, changed.values()))} of {len(set(want) | set(got))} cases differ from the manifest"]
    lines += [f"  {family}: {len(names)}: {', '.join(names[:5])}{' ...' if len(names) > 5 else ''}" for family, names in changed.items()]
    lines.append(f"manifest recorded with {recorded_with}; this run with {versions()}")
    return "\n".join(lines)


def digest(tree: Path, out_path: Path) -> int:
    cases = digests(_import_tree(tree.resolve()))
    write_manifest(out_path, cases)
    print(f"wrote {len(cases)} digests from {(tree / 'src').resolve()} to {out_path}")
    return 0


def _strip_tree_warnings(stderr: str, tree: str) -> str:
    kept, skip_source_line = [], False
    for line in stderr.splitlines(keepends=True):
        if line.startswith(tree):
            skip_source_line = True
            continue
        if skip_source_line and line.startswith("  "):
            skip_source_line = False
            continue
        skip_source_line = False
        kept.append(line)
    return "".join(kept)


def _differing(old: dict, new: dict):
    """Yield (name, old case, new case) for every case that differs; a case missing on one side is None."""
    for name in sorted(set(old["cases"]) | set(new["cases"])):
        if name not in old["cases"] or name not in new["cases"]:
            yield name, old["cases"].get(name), new["cases"].get(name)
            continue
        (a_code, a_out, a_err), (b_code, b_out, b_err) = old["cases"][name], new["cases"][name]
        a_err, b_err = _strip_tree_warnings(a_err, old["tree"]), _strip_tree_warnings(b_err, new["tree"])
        if (a_code, a_out, a_err) != (b_code, b_out, b_err):
            yield name, (a_code, a_out, a_err), (b_code, b_out, b_err)


def _row_names(stdout: str) -> list[str | None]:
    """The report row each stdout line holds, as ``section.name`` (``reconstruct_check.residual``,
    ``tolerance.NOISE_BOUND``, or a header name alone), or None for a line that holds no row."""
    lines, names, section, kinds = stdout.splitlines(), [], "", {}
    fmt = "structured" if stdout.startswith("{") else "csv" if stdout.startswith("query_index,") else "text"
    for line in lines:
        name = None
        if fmt == "csv" and (m := re.fullmatch(r"(\d+),([^,]+),(.*)", line)):
            if m[2] == "kind":
                kinds[m[1]] = m[3]
            name = m[2] if m[1] == "0" else f"{kinds.get(m[1], m[1])}.{m[2]}"
        elif fmt == "structured" and (m := re.fullmatch(r'\s*"([^"]+)": (.*?),?', line)):
            if m[2] == "{" and m[1] == "tolerances":
                section = "tolerance"
            elif m[1] == "kind":
                section = json.loads(m[2])
            name = f"{section}.{m[1]}" if section else m[1]
        elif fmt == "text" and (m := re.fullmatch(r"query \d+: (\S+)|(tolerances):", line)):
            section = m[1] or "tolerance"
        elif fmt == "text" and (m := re.fullmatch(r"(  )?(\S+?):?\s+.*", line)):
            name = f"{section}.{m[2]}" if m[1] else m[2]
        names.append(name)
    return names


def _value(line: str) -> float | None:
    """The number a row line ends with, or None when its value is not a number."""
    try:
        return float(re.split(r"[\s,:]+", line.strip().rstrip(","))[-1])
    except ValueError:
        return None


def _row_changes(name: str, a, b):
    """Yield (row, |delta| or None, description) for each changed row of one differing case."""
    if a is None or b is None:
        yield "(case)", None, f"{name}: only in the {'old' if b is None else 'new'} recording"
        return
    if a[0] != b[0] or a[2] != b[2]:
        yield "(case)", None, f"{name}: exit {a[0]} -> {b[0]}, stderr {a[2]!r} -> {b[2]!r}"
    a_lines, b_lines = a[1].splitlines(), b[1].splitlines()
    a_names, b_names = _row_names(a[1]), _row_names(b[1])
    for op, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a_lines, b_lines, autojunk=False).get_opcodes():
        if op == "equal":
            continue
        if op == "replace" and i2 - i1 == j2 - j1:
            for i, j in zip(range(i1, i2), range(j1, j2)):
                row = a_names[i] if a_names[i] == b_names[j] else None
                old_v, new_v = _value(a_lines[i]), _value(b_lines[j])
                if row is not None and old_v is not None and new_v is not None:
                    yield row, abs(new_v - old_v), None
                else:
                    yield row or "(unnamed)", None, f"{name}: {a_lines[i]!r} -> {b_lines[j]!r}"
        else:
            yield "(lines)", None, f"{name}: {a_lines[i1:i2]!r} -> {b_lines[j1:j2]!r}"


def _print_rows(differing) -> None:
    """For each row name: the number of cases that change it and its largest numeric |delta|;
    then every change that is not a number changing, in full."""
    cases: dict[str, set[str]] = {}
    largest: dict[str, float] = {}
    other = []
    for name, a, b in differing:
        for row, delta, text in _row_changes(name, a, b):
            cases.setdefault(row, set()).add(name)
            if delta is not None:
                largest[row] = max(largest.get(row, 0.0), delta)
            if text is not None:
                other.append(text)
    for row in sorted(cases):
        delta = f"largest |delta| {largest[row]:.3g}" if row in largest else "no numeric change"
        print(f"{row}: {len(cases[row])} cases, {delta}")
    if other:
        print(f"{len(other)} non-numeric changes:")
        print("\n".join(f"    {text}" for text in other))


def _print_cases(differing, old_path: Path, new_path: Path) -> None:
    for name, a, b in differing:
        if a is None or b is None:
            print(f"{name}: only in {new_path if a is None else old_path}")
            continue
        print(f"{name}: exit {a[0]} -> {b[0]}")
        for stream, x, y in (("stdout", a[1], b[1]), ("stderr", a[2], b[2])):
            if x != y:
                lines = difflib.unified_diff(x.splitlines(), y.splitlines(), f"old {stream}", f"new {stream}", lineterm="", n=1)
                print("\n".join(f"    {line}" for line in lines))


def diff(old_path: Path, new_path: Path, rows: bool = False) -> int:
    # recorded output may hold lone surrogates, which strict UTF-8 cannot print
    sys.stdout.reconfigure(errors="backslashreplace")
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (old_path, new_path))
    differing = list(_differing(old, new))
    if rows:
        _print_rows(differing)
    else:
        _print_cases(differing, old_path, new_path)
    total = len(set(old["cases"]) | set(new["cases"]))
    print(f"{total - len(differing)} of {total} cases identical, {len(differing)} differ")
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run every case against TREE/src and write OUT")
    rec.add_argument("tree", type=Path)
    rec.add_argument("out", type=Path)
    dig = sub.add_parser("digest", help="run every case against TREE/src and write one digest per case to OUT")
    dig.add_argument("tree", type=Path)
    dig.add_argument("out", type=Path)
    cmp = sub.add_parser("diff", help="compare two recordings")
    cmp.add_argument("old", type=Path)
    cmp.add_argument("new", type=Path)
    cmp.add_argument("--rows", action="store_true", help="summarize the changes by report row instead of by case")
    args = parser.parse_args()
    if args.command == "record":
        return record(args.tree, args.out)
    if args.command == "digest":
        return digest(args.tree, args.out)
    return diff(args.old, args.new, args.rows)


if __name__ == "__main__":
    sys.exit(main())
