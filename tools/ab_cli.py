"""Time two trees against each other on the ``analyze_mix`` workload, interleaved in one process.

    python tools/ab_cli.py PARENT_TREE CHANGE_TREE [--seed N] [--reps R]

The script imports ``qdecision`` from ``PARENT_TREE/src`` and from
``CHANGE_TREE/src`` under two package names, and builds one round of
``analyze_mix`` for seed N with ``bench/workloads.py`` of the checkout it
lives in, read only, as ``tools/report_diff.py`` does. Then it runs every op
of the round R times on each tree, the two trees back to back and taking
turns to go first, and keeps each op's fastest repeat on each tree, as
``bench/run.py`` does.

Each op's command line is rebuilt from the round's documents and the op's
format tag, and on the first repeat the workload's own check must accept its
result. Exit code, stdout and stderr must be equal on both trees: at the
first op where they differ, or whose check fails, the script prints the op
and exits 1. Otherwise it prints,
per document kind and per report format, the summed fastest latencies on
each tree and their ratio, parent over change, so that above 1 is a speedup.
The row for the whole round is the ratio of ``throughput_ops_s``.

Why interleave: on a shared host a core's speed drifts for seconds at a
time, so two ``bench/run.py`` runs of one tree can differ by a third. Ops
that run back to back see the same drift, and their ratio does not.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def _import_tree(tree: Path, name: str):
    """``TREE/src/qdecision`` imported as package ``name``; returns its ``cli`` module."""
    package = (tree / "src" / "qdecision").resolve()
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _command_lines(workload, workdir: str) -> list[list[str]]:
    """Each op's ``analyze`` command line, from the round's documents and the op's format tag.

    A round walks the documents in order once per format, so op i reads
    document i mod n; each op's own check of its result confirms that.
    """
    documents = workload.inputs["documents"]
    paths = [str(Path(workdir) / f"ab{n:03d}.json") for n in range(len(documents))]
    for path, text in zip(paths, documents):
        Path(path).write_text(text, encoding="utf-8")
    return [["analyze", paths[i % len(paths)], "--format", op.tags["fmt"]] for i, op in enumerate(workload.ops)]


def _print_table(title: str, rows: dict[str, list[float]], counts: dict[str, int]) -> None:
    print(f"{title:<12} {'ops':>4} {'parent ms':>10} {'change ms':>10} {'ratio':>6}")
    for key, (parent, change) in rows.items():
        print(f"{key:<12} {counts[key]:>4} {parent * 1e3:>10.2f} {change * 1e3:>10.2f} {parent / change:>6.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="tree whose src/ holds the parent's qdecision")
    parser.add_argument("change", type=Path, help="tree whose src/ holds the changed qdecision")
    parser.add_argument("--seed", type=int, default=1, help="analyze_mix seed (default 1)")
    parser.add_argument("--reps", type=int, default=10, help="repeats of each op on each tree (default 10)")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    clis = [_import_tree(tree, f"qdecision_{name}") for tree, name in zip((args.parent, args.change), TREES)]
    # the workload's own preparation imports qdecision.cli: give it the change tree's
    sys.modules["qdecision"], sys.modules["qdecision.cli"] = sys.modules["qdecision_change"], clis[1]
    sys.path += [str(ROOT / "bench")]
    import workloads

    # a warning names the file of the tree that raised it, so the two trees' stderr would differ
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as workdir:
        workload = workloads.build("analyze_mix", args.seed, workdir)
        ops, argvs = workload.ops, _command_lines(workload, workdir)
        calls = [[workloads._cli_call(cli, argv) for cli in clis] for argv in argvs]
        best = [[math.inf, math.inf] for _ in ops]
        clock = time.perf_counter
        for rep in range(args.reps):
            for i, pair in enumerate(calls):
                outs = [None, None]
                for t in ((0, 1) if (rep + i) % 2 == 0 else (1, 0)):
                    t0 = clock()
                    outs[t] = pair[t]()
                    best[i][t] = min(best[i][t], clock() - t0)
                if outs[0] != outs[1]:
                    print(f"op {i} {ops[i].tags} {argvs[i]}: the trees differ")
                    for t, (code, out, err) in zip(TREES, outs):
                        print(f"  {t}: exit {code}, {len(out)} bytes of stdout, stderr {err[:200]!r}")
                    return 1
                if rep == 0 and (problem := ops[i].check(outs[0])):
                    print(f"op {i} {ops[i].tags} {argvs[i]}: the workload's check fails: {problem}")
                    return 1

    for key in ("doc", "fmt"):
        rows: dict[str, list[float]] = {}
        counts: dict[str, int] = {}
        for op, (parent, change) in zip(ops, best):
            row = rows.setdefault(str(op.tags[key]), [0.0, 0.0])
            row[0] += parent
            row[1] += change
            counts[str(op.tags[key])] = counts.get(str(op.tags[key]), 0) + 1
        _print_table(key, rows, counts)
        print()
    parent, change = (sum(b[t] for b in best) for t in (0, 1))
    print(f"round: {len(ops)} ops, identical output on both trees, {args.reps} repeats, seed {args.seed}")
    print(f"throughput_ops_s  parent {len(ops) / parent:.1f}  change {len(ops) / change:.1f}  ratio {parent / change:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
