"""Run one workload of the qdecision benchmark and print its metrics.

    python3 bench/run.py --workload analyze_mix --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced pass. The last line of stdout is
one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import os

# One caller, one core: pin BLAS/OpenMP threads before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import glob
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SPAWNS = 9
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_BEYOND = 10
TRACE_MAX_OPS = 10_000  # bounds the spans a traced pass keeps in memory


def load_program():
    """Import qdecision from this checkout's sources, and from nowhere else."""
    if not (SRC / "qdecision" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qdecision sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qdecision

    if Path(qdecision.__file__).resolve().parent != SRC / "qdecision":
        raise SystemExit(f"bench: imported qdecision from {qdecision.__file__}, not {SRC}")
    return qdecision


# ---------------------------------------------------------------------------
# provenance


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qdecision").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, when it can be asked."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def provenance(args, workload) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": workload.digest,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# measurement


@dataclass
class PassResult:
    slot: list  # per op of the round: index of its inputs in ``fastest``
    fastest: list  # per distinct inputs: the fastest timing in this pass, seconds
    attempted: int = 0
    busy: float = 0.0  # seconds with an op in flight
    rounds: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    op_tags: list = field(default_factory=list)

    @classmethod
    def for_workload(cls, workload) -> "PassResult":
        slots: dict[int, int] = {}
        slot = [slots.setdefault(id(op), len(slots)) for op in workload.ops]
        return cls(slot, [math.inf] * len(slots))

    @property
    def best(self) -> list:
        """Per op of the round, the fastest timing its inputs got."""
        return [self.fastest[k] for k in self.slot]


def warm_up(workload) -> None:
    """Run the first op of every distinct kind once, unchecked and untimed."""
    seen = set()
    for op in workload.ops:
        key = tuple(sorted(op.tags.items()))
        if key not in seen:
            seen.add(key)
            try:
                op.run()
            except (Exception, SystemExit):
                pass  # the timed loop runs this op again and counts the failure


def run_pass(workload, res: PassResult | None = None, *, seconds: float | None = None,
             rounds: int | None = None, tracer=None, after_round=None) -> PassResult:
    """Closed loop over whole rounds: the next op starts when the previous returns.

    Adds to ``res`` (a new pass if None) until it holds ``rounds`` rounds,
    or until the first round end once it holds ``seconds`` of op time,
    whichever comes first. Each op's output is checked with the clock
    stopped, and ``after_round(result)`` also runs with the clock stopped.

    The latency reported for an op is the fastest timing its inputs got in
    the pass, as ``timeit`` reports: on a shared host, other tenants slow a
    core down by up to 1.7x for seconds at a time, and the fastest of many
    repeats spread over the run is what stays put from run to run.
    """
    if res is None:
        res = PassResult.for_workload(workload)
    fastest, slot = res.fastest, res.slot
    clock = time.perf_counter
    gc.collect()
    while (rounds is None or res.rounds < rounds) and (seconds is None or res.busy < seconds):
        for i, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op_id = len(res.op_tags)
                res.op_tags.append(op.tags)
            t0 = clock()
            try:
                out = op.run()
                problem = None
            except (Exception, SystemExit) as exc:
                problem = f"raised {exc!r}"
            dt = clock() - t0
            res.busy += dt
            res.attempted += 1
            if dt < fastest[slot[i]]:
                fastest[slot[i]] = dt
            if problem is None:
                try:
                    problem = op.check(out)
                except Exception as exc:
                    problem = f"check raised {exc!r}"
            if problem is not None:
                res.failed += 1
                if len(res.failures) < 5:
                    res.failures.append(f"{op.tags}: {problem}")
        res.rounds += 1
        if after_round is not None:
            after_round(res)
    return res


def latency_tail(latencies: list) -> tuple[float, float]:
    """Latency at the highest ladder percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    q = max((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= TAIL_BEYOND), default=TAIL_LADDER[0])
    return ordered[max(0, math.ceil(q / 100.0 * n) - 1)], q


class SetupTimer:
    """Wall time of fresh interpreters that import qdecision and prepare the workload.

    The spawns are spread over the timed loop (with its clock stopped) so
    that they sample the same host conditions as the ops do.
    """

    def __init__(self, workload_name: str, spec: dict, workdir: str):
        self.spec_path = os.path.join(workdir, "spec.json")
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.workload_name = workload_name
        self.times: list[float] = []

    def spawn(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), self.workload_name, self.spec_path],
            env=self.env, cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
        self.times.append(wall - float(proc.stdout.split()[-1]))

    def catch_up(self, fraction: float) -> None:
        """Spawn until a ``fraction`` of SETUP_SPAWNS is done."""
        while len(self.times) < min(SETUP_SPAWNS, math.ceil(SETUP_SPAWNS * fraction)):
            self.spawn()


def end_to_end(workload, args, workdir: str) -> tuple[dict, PassResult, dict]:
    setup = SetupTimer(workload.name, workload.spec, workdir)
    setup.spawn()  # fails fast, before the loop, if preparation is broken
    warm_up(workload)
    res = run_pass(workload, seconds=args.seconds, after_round=lambda r: setup.catch_up(r.busy / args.seconds))
    setup.catch_up(1.0)
    tail, q = latency_tail(res.best)
    metrics = {
        "throughput_ops_s": (len(res.best) / sum(res.best), "1/s"),
        "latency_p50_ms": (statistics.median(res.best) * 1e3, "ms"),
        "success_ratio": (1.0 - res.failed / res.attempted, "ratio"),
        "setup_s": (statistics.median(setup.times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "ops_per_round": len(res.best),
        "rounds": res.rounds,
        "latency_tail_ms": tail * 1e3,
        "tail_percentile": q,
        "wall_throughput_ops_s": res.attempted / res.busy,
        "failed_ratio": res.failed / res.attempted,
        "setup_spawns_s": setup.times,
    }
    return metrics, res, notes


def per_layer(workload, args) -> tuple[dict, list, dict, object]:
    import tracer as tr

    warm_up(workload)
    # Untraced and traced rounds alternate, so both see the same host conditions.
    plain, traced = PassResult.for_workload(workload), PassResult.for_workload(workload)
    tracer = tr.Tracer()
    max_rounds = max(1, TRACE_MAX_OPS // len(workload.ops))
    while plain.rounds < max_rounds and plain.busy < args.seconds / 2.0:
        run_pass(workload, plain, rounds=plain.rounds + 1)
        tracer.install()
        try:
            run_pass(workload, traced, rounds=traced.rounds + 1, tracer=tracer)
        finally:
            tracer.uninstall()
    metrics = tr.span_metrics(tracer.spans, traced.op_tags, traced.rounds)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    counters = workload.counters
    metrics["engine.reconstruct_density.clipped_ratio"] = (
        counters["clipped"] / counters["noisy"] if counters.get("noisy") else 0.0, "ratio")
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    metrics["trace.overhead_ratio"] = (sum(plain.best) / sum(traced.best), "ratio")
    # The tail is reported per workload and not gated: it did not repeat within
    # a tenth on bulk_numeric. It comes from the untraced rounds.
    tail, q = latency_tail(plain.best)
    for name in workloads.WORKLOADS:
        metrics[f"{name}.latency_tail_ms"] = (tail * 1e3 if name == workload.name else 0.0, "ms")
    notes = {"ops_per_round": len(plain.best), "rounds": traced.rounds, "spans": len(tracer.spans),
             "tail_percentile": q}
    return metrics, [plain, traced], notes, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        prov = provenance(args, workload)
        if args.trace:
            metrics, passes, notes, tracer = per_layer(workload, args)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(str(spans_path), "# " + json.dumps(prov))
            notes["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, result, notes = end_to_end(workload, args, workdir)
            passes = [result]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for problem in (f for p in passes for f in p.failures):
        print(f"bench: failed op {problem}", file=sys.stderr)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "notes": notes, **summary}, fh, indent=1)

    print(f"provenance {json.dumps(prov)}")
    print(f"notes {json.dumps(notes)}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
