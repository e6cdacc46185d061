"""Time two trees against each other on one benchmark workload, interleaved in one process.

    python tools/ab_cli.py PARENT_TREE CHANGE_TREE [--workload W] [--seed N] [--reps R]

The script imports ``qdecision`` from ``PARENT_TREE/src`` and from
``CHANGE_TREE/src`` under two package names, and builds one round of
workload W (``analyze_mix``, the default, ``engine_calls`` or ``bulk_numeric``) for seed N
with ``bench/workloads.py`` of the checkout it lives in, read only, as
``tools/report_diff.py`` does. Then it runs every op of the round R times on
each tree, the two trees back to back and taking turns to go first, and
keeps the fastest timing of each op's inputs on each tree, as
``bench/run.py`` does.

``analyze_mix`` is built once: each op's command line is rebuilt from the
round's documents and the op's format tag and run on each tree's CLI.
``engine_calls`` and ``bulk_numeric`` are built once per tree, with
``qdecision`` pointing at that tree's package, since the workload's factory
and its preparation import it by name; the seed fixes the inputs, so the two
rounds hold the same ops in the same order.

On every repeat the two trees' results must be equal: exit code, stdout
and stderr for a CLI call, by ``==``; a float, a collapsed state's
amplitudes, and a reconstruction's ``rho.matrix``, ``residual``,
``clipped``, ``min_eigenvalue`` and ``condition_number``, bit for bit by
their ``uint64`` views, so a zero of the other sign differs and nan equals
nan; a report dataclass by its compared fields, each float in them, in a
tuple too, bit for bit and each int, bool or string by ``==``.
On the first, the workload's own check must accept each op's result on
both trees where the two agree: at the first op whose check fails, the
script prints the op and exits 1. Where the trees differ, it prints the first such op and keeps
timing; its last lines then give the count of ops that differed on any
repeat and the largest relative difference among their results (inf where a
result other than a float differs, such as a CLI call's output), and it
exits 1. Either way it prints the summed
fastest latencies on each tree and their ratio, parent over change, so
that above 1 is a speedup: per document kind and per report format for
``analyze_mix``; per ``(op, d)`` tag for ``engine_calls`` and
``(op, r, noisy)`` tag for ``bulk_numeric``, with the median latency of
each tag's ops and its ratio next to it. The rows for the whole round are the
ratios of ``latency_p50_ms`` and ``throughput_ops_s``, on every workload, as the
benchmark gates both on each. Before them, a line names on each tree the op
whose latency is the round's median (or the two ops a median of an even count
averages) and the table rows it is counted in, so that a change in
``latency_p50_ms`` can be read against the row of the op that sets it.

Why interleave: on a shared host a core's speed drifts for seconds at a
time, so two ``bench/run.py`` runs of one tree can differ by a third. Ops
that run back to back see the same drift, and their ratio does not.
With fewer than 10 repeats the fastest timing of a 0.2 ms op is not yet
settled (a ``bulk_numeric`` run at 5 repeats once read 0.81x on
``latency_p50_ms`` where 15 repeats read 1.01x), so the script then says on
stderr that its ratios are not to be cited.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import math
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")
WORKLOADS = ("analyze_mix", "engine_calls", "bulk_numeric")
RECONSTRUCTION_FIELDS = ("residual", "clipped", "min_eigenvalue", "condition_number")


def _import_tree(tree: Path, name: str):
    """``TREE/src/qdecision`` imported as package ``name``; returns its ``cli`` module."""
    package = (tree / "src" / "qdecision").resolve()
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _point_qdecision_at(name: str) -> None:
    """Make ``import qdecision`` (and its submodules) give the package imported as ``name``."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        sys.modules["qdecision" + key[len(name):]] = sys.modules[key]


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


def _rounds(name: str, seed: int, clis, workdir: str):
    """Per op of the round: its tags, a description, and per tree its call and its check."""
    import workloads

    if name == "analyze_mix":
        # the workload's own preparation imports qdecision.cli: give it the change tree's
        _point_qdecision_at("qdecision_change")
        workload = workloads.build(name, seed, workdir)
        argvs = _command_lines(workload, workdir)
        return [(op.tags, argv, [workloads._cli_call(cli, argv) for cli in clis], [op.check] * 2)
                for op, argv in zip(workload.ops, argvs)]
    built = []
    for tree in TREES:
        _point_qdecision_at(f"qdecision_{tree}")
        built.append(workloads.build(name, seed, workdir).ops)
    return [(ops[0].tags, "", [op.run for op in ops], [op.check for op in ops]) for ops in zip(*built)]


def _compared(report) -> tuple:
    """A report dataclass's class name and compared fields. The two trees' classes are distinct, so ``==`` on the
    reports themselves is false even when every field is equal."""
    return type(report).__name__, tuple(getattr(report, f.name) for f in dataclasses.fields(report) if f.compare)


def _same_bits(a, b) -> bool:
    """Equal float64 or complex128 bits, compared as unsigned integers: -0.0 differs from 0.0, and nan equals nan."""
    return np.array_equal(*(np.asarray(x, dtype=np.result_type(x, float)).view(np.uint64) for x in (a, b)))


def _same_value(a, b) -> bool:
    """Floats (``np.float64`` is one) bit for bit, tuples item by item, anything else by ``==``."""
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and _same_bits(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same_value, a, b))
    return a == b


def _same(a, b) -> bool:
    """Equal results: a collapsed state's amplitudes, and a reconstruction's ``rho.matrix`` and four fields, bit for bit;
    a report dataclass of either tree by its compared fields; anything else, a CLI call's (exit, stdout, stderr) or a
    number, by ``_same_value``."""
    if hasattr(a, "amplitudes"):
        return _same_bits(a.amplitudes, b.amplitudes)
    if hasattr(a, "rho"):
        return _same_bits(a.rho.matrix, b.rho.matrix) and all(
            _same_bits(getattr(a, k), getattr(b, k)) for k in RECONSTRUCTION_FIELDS
        )
    if dataclasses.is_dataclass(a):
        return _same_value(_compared(a), _compared(b))
    return _same_value(a, b)


def _numbers(result) -> list:
    """The values a result holds, in order: a state's amplitudes, a reconstruction's matrix and four fields, a report's
    compared fields, and a tuple's items, each in turn."""
    if hasattr(result, "amplitudes"):
        result = result.amplitudes
    elif hasattr(result, "rho"):
        result = (result.rho.matrix, *(getattr(result, k) for k in RECONSTRUCTION_FIELDS))
    elif dataclasses.is_dataclass(result):
        result = _compared(result)[1]
    if isinstance(result, np.ndarray):
        return result.ravel().tolist()
    if isinstance(result, tuple):
        return [y for x in result for y in _numbers(x)]
    return [result]


def _relative_difference(a, b) -> float:
    """The largest ``|x - y| / max(|x|, |y|)`` over the floats two results hold, pair by pair, two zeros and two nans
    giving 0; inf where anything else differs: a nan against a number, an int, bool or string, or the count of values."""
    xs, ys = _numbers(a), _numbers(b)
    if len(xs) != len(ys):
        return math.inf
    worst = 0.0
    for x, y in zip(xs, ys):
        if not (isinstance(x, (float, complex)) and isinstance(y, (float, complex))):
            if x != y:
                return math.inf
        elif x != x or y != y:  # a nan
            if not (x != x and y != y):
                return math.inf
        elif x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _describe(result) -> str:
    if isinstance(result, tuple):
        code, out, err = result
        return f"exit {code}, {len(out)} bytes of stdout, stderr {err[:200]!r}"
    if hasattr(result, "amplitudes"):
        return repr(result.amplitudes)
    if hasattr(result, "rho"):
        return ", ".join(f"{k} {getattr(result, k)!r}" for k in RECONSTRUCTION_FIELDS)
    return repr(result)


def _tag_key(tags: dict) -> str:
    if "r" in tags:
        return f"{tags['op']} r{tags['r']} {'noisy' if tags['noisy'] else 'exact'}"
    return f"{tags['op']} d{tags['d']}" if "d" in tags else tags["op"]


def _row(tags: dict, key: str) -> str:
    """The name of the table row that holds an op with ``tags``, in the table keyed by ``key``."""
    return _tag_key(tags) if key == "op" else str(tags[key])


def _median_ops(times: list[float]) -> list[int]:
    """The op whose latency ``statistics.median`` returns, or the two whose latencies it averages."""
    order = sorted(range(len(times)), key=times.__getitem__)
    return order[(len(order) - 1) // 2:len(order) // 2 + 1]


def _print_table(title: str, rows: dict[str, list[list[float]]], *, width: int = 12, p50: bool = False) -> None:
    head = f"{title:<{width}} {'ops':>4} {'parent ms':>10} {'change ms':>10} {'ratio':>6}"
    print(head + (f" {'parent p50':>10} {'change p50':>10} {'ratio':>6}" if p50 else ""))
    for key, (parent, change) in rows.items():
        line = f"{key:<{width}} {len(parent):>4} {sum(parent) * 1e3:>10.2f} {sum(change) * 1e3:>10.2f} {sum(parent) / sum(change):>6.3f}"
        if p50:
            mp, mc = statistics.median(parent), statistics.median(change)
            line += f" {mp * 1e3:>10.3f} {mc * 1e3:>10.3f} {mp / mc:>6.3f}"
        print(line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="tree whose src/ holds the parent's qdecision")
    parser.add_argument("change", type=Path, help="tree whose src/ holds the changed qdecision")
    parser.add_argument("--workload", choices=WORKLOADS, default="analyze_mix", help="workload to time (default analyze_mix)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--reps", type=int, default=10, help="repeats of each op on each tree (default 10)")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.reps < 10:
        print(f"ab_cli: --reps {args.reps} is below 10: the ratios read host drift and are not to be cited", file=sys.stderr)

    clis = [_import_tree(tree, f"qdecision_{name}") for tree, name in zip((args.parent, args.change), TREES)]
    sys.path += [str(ROOT / "bench")]

    # a warning names the file of the tree that raised it, so the two trees' stderr would differ
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as workdir:
        ops = _rounds(args.workload, args.seed, clis, workdir)
        # an op whose inputs recur in the round shares one fastest timing per tree, as in bench/run.py
        slots: dict[int, int] = {}
        slot = [slots.setdefault(id(calls[1]), len(slots)) for _, _, calls, _ in ops]
        fastest = [[math.inf, math.inf] for _ in slots]
        differ: dict[int, float] = {}  # op -> the largest relative difference of its results over the repeats
        clock = time.perf_counter
        for rep in range(args.reps):
            for i, (tags, argv, calls, checks) in enumerate(ops):
                outs = [None, None]
                for t in ((0, 1) if (rep + i) % 2 == 0 else (1, 0)):
                    t0 = clock()
                    outs[t] = calls[t]()
                    fastest[slot[i]][t] = min(fastest[slot[i]][t], clock() - t0)
                if not _same(*outs):
                    if not differ:
                        print(f"op {i} {tags} {argv}: the trees differ")
                        for t, out in zip(TREES, outs):
                            print(f"  {t}: {_describe(out)}")
                    differ[i] = max(differ.get(i, 0.0), _relative_difference(*outs))
                elif rep == 0:  # a differing result may be one the check cannot read
                    for t, check, out in zip(TREES, checks, outs):
                        if problem := check(out):
                            print(f"op {i} {tags} {argv}: the workload's check fails on the {t} tree: {problem}")
                            return 1

    best = [fastest[k] for k in slot]
    keys = ("doc", "fmt") if args.workload == "analyze_mix" else ("op",)
    for key in keys:
        rows: dict[str, list[list[float]]] = {}
        for (tags, _, _, _), times in zip(ops, best):
            row = rows.setdefault(_row(tags, key), [[], []])
            row[0].append(times[0])
            row[1].append(times[1])
        _print_table(key, rows, width=max(22, *map(len, rows)) if key == "op" else 12, p50=key == "op")
        print()
    parent, change = ([b[t] for b in best] for t in (0, 1))
    same = f"{len(differ)} differ between the trees, largest relative difference {max(differ.values()):.3g}" if differ else (
        "identical output on both trees")
    print(f"round: {len(ops)} ops, {same}, {args.reps} repeats, seed {args.seed}")
    setters = [" and ".join(f"op {i} ({', '.join(_row(ops[i][0], key) for key in keys)})" for i in _median_ops(times))
               for times in (parent, change)]
    print(f"latency_p50_ms is set by  parent: {setters[0]}  change: {setters[1]}")
    mp, mc = statistics.median(parent), statistics.median(change)
    print(f"latency_p50_ms  parent {mp * 1e3:.4f}  change {mc * 1e3:.4f}  ratio {mp / mc:.3f}")
    print(f"throughput_ops_s  parent {len(ops) / sum(parent):.1f}  change {len(ops) / sum(change):.1f}  ratio {sum(parent) / sum(change):.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
