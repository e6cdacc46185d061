"""The three workloads: seeded inputs, the program calls made on them, and checks.

Each workload is built in three steps:

1. generate: every input is drawn from the workload seed with numpy's
   PCG64, together with the reference answer computed by ``reference``;
2. prepare: the program turns the inputs into its own types
   (``prepare.py``, the part timed as ``setup_s``);
3. ops: one *round* of calls in a fixed seeded order. Runs repeat whole
   rounds, so every count per op is exact whatever the run length.

The program only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import reference as ref
from prepare import PREPARE, decode, encode

WORKLOADS = ("analyze_mix", "engine_calls", "bulk_numeric")
FORMATS = ("text", "csv", "structured")
QUERY_KINDS = ("distribution", "expectation", "sequence", "conjunction", "total_probability", "sure_thing")

# Density reconstruction bounds. RECONSTRUCTION_TOL is the program's
# documented exact-input round-trip bound (qdecision.tolerances), copied so
# that loosening it in the program does not loosen the check. For noisy
# samples, ||rho_hat - rho||_F <= NOISY_GAIN * ||noise||_2: the least-squares
# inverse amplifies sample noise by 1 / sigma_min of the effect design
# (sigma_min = 0.34, 0.24, 0.17 at r = 4, 8, 16, so >= 0.1 up to r = 32),
# and clipping to the positive cone plus trace renormalization at most
# doubles that.
RECONSTRUCTION_TOL = 1e-8
NOISE_SIGMA = 1e-7
NOISY_GAIN = 20.0

SPIN_SAMPLES = 1_000_000


@dataclass
class Op:
    """One closed-loop call: ``run`` is timed, ``check`` is not."""

    tags: dict
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    inputs: dict  # everything the program is given, as JSON (references excluded)
    spec: dict  # what program-side preparation loads
    ops: list[Op]  # one round, in order
    counters: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed % 2**64])


def build(workload: str, seed: int, workdir: str) -> Workload:
    """Generate, prepare and lay out one round of ``workload`` for ``seed``."""
    return FACTORIES[workload](rng_for(workload, seed), workdir)


# ---------------------------------------------------------------------------
# random inputs


def random_unitary(rng, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_vector(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_density(rng, d: int) -> np.ndarray:
    """Full-rank density matrix, exactly Hermitian."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m = m / np.trace(m).real
    return (m + m.conj().T) / 2.0


def random_sizes(rng, d: int, m: int) -> list[int]:
    cuts = np.sort(rng.choice(np.arange(1, d), size=m - 1, replace=False))
    return [int(k) for k in np.diff([0, *cuts, d])]


def random_variable(rng, name: str, d: int, sizes: list[int]) -> dict:
    """Distinct values (unsorted) with orthonormal eigenvector groups as rows."""
    u = random_unitary(rng, d)
    values = rng.choice(np.arange(-8, 9) / 2.0, size=len(sizes), replace=False)
    groups, start = [], 0
    for k in sizes:
        groups.append(u[:, start:start + k].T.copy())
        start += k
    return {"name": name, "values": [float(x) for x in values], "groups": groups}


class RefVariable:
    """Reference view of a generated variable: value -> numpy projector."""

    def __init__(self, name: str, values, groups):
        self.name = name
        self.values = [float(u) for u in values]
        self.projs = [ref.projector(g) for g in groups]

    def proj(self, value: float) -> np.ndarray:
        return self.projs[self.values.index(value)]

    def sorted_pairs(self) -> list[tuple[float, np.ndarray]]:
        return sorted(zip(self.values, self.projs), key=lambda t: t[0])


class Deal:
    """Structural choices dealt round-robin from a seeded order.

    What a call costs depends on its structure (query count, kinds, chain
    length, dimension); dealing these instead of drawing them gives every
    seed the same mix of costs, and leaves only the numbers random.
    """

    def __init__(self, rng):
        self.rng = rng
        self.cycles: dict = {}

    def __call__(self, key: str, options):
        if key not in self.cycles:
            options = list(options)
            self.cycles[key] = itertools.cycle([options[i] for i in self.rng.permutation(len(options))])
        return next(self.cycles[key])


def random_event(rng, variables: list[RefVariable]) -> tuple[RefVariable, float]:
    v = variables[rng.integers(len(variables))]
    return v, v.values[rng.integers(len(v.values))]


# ---------------------------------------------------------------------------
# analyze_mix

N_MEDICAL, N_EXPLICIT, N_DENSITY, N_D16 = 48, 32, 16, 12
MALFORMED_KINDS = ("ragged_matrix", "non_orthonormal", "undeclared_variable", "bad_norm")
N_MALFORMED_EACH = 3
MEDICAL_ANGLES = [a for a in range(5, 180, 5) if a != 90]


def _cvec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _queries(rng, deal: Deal, state: np.ndarray, variables: list[RefVariable]) -> tuple[list, list]:
    """4-8 query nodes with their references; density states get the two kinds they accept."""
    state_kind = "vector" if state.ndim == 1 else "density"
    kinds = QUERY_KINDS if state.ndim == 1 else QUERY_KINDS[:2]
    binary = [v for v in variables if len(v.values) == 2]
    nodes, refs = [], []
    for _ in range(deal("queries", range(4, 9))):
        kind = deal(f"kind.{state_kind}", kinds)
        if kind in ("distribution", "expectation"):
            v = variables[rng.integers(len(variables))]
            pairs = v.sorted_pairs()
            probs = [ref.probability(state, p) for _, p in pairs]
            nodes.append({"kind": kind, "variable": v.name})
            if kind == "distribution":
                values = {}
                for j, ((u, _), p) in enumerate(zip(pairs, probs), start=1):
                    values[f"value_{j}"] = u
                    values[f"p_{j}"] = p
            else:
                values = {"expectation": sum(u * p for (u, _), p in zip(pairs, probs))}
            refs.append({"kind": kind, "values": values})
        elif kind == "sequence":
            steps = [random_event(rng, variables) for _ in range(deal("steps", range(2, 7)))]
            nodes.append({"kind": kind, "steps": [[v.name, u] for v, u in steps]})
            refs.append({"kind": kind, "values": {"probability": ref.chain(state, [v.proj(u) for v, u in steps])}})
        elif kind == "conjunction":
            (va, ua), (vb, ub) = random_event(rng, variables), random_event(rng, variables)
            nodes.append({"kind": kind, "first": [va.name, ua], "second": [vb.name, ub]})
            refs.append({"kind": kind, **ref.conjunction(state, va.proj(ua), vb.proj(ub))})
        elif kind == "total_probability":
            part = variables[rng.integers(len(variables))]
            vt, ut = random_event(rng, variables)
            nodes.append({"kind": kind, "partition": part.name, "target": [vt.name, ut]})
            refs.append({"kind": kind, **ref.total_probability(state, part.sorted_pairs(), vt.proj(ut))})
        else:
            cond = binary[rng.integers(len(binary))]
            vc, uc = random_event(rng, variables)
            threshold = round(float(rng.uniform(0.3, 0.7)), 3)
            nodes.append({"kind": kind, "condition": cond.name, "choice": [vc.name, uc], "threshold": threshold})
            refs.append({"kind": kind, **ref.sure_thing(state, cond.sorted_pairs(), vc.proj(uc), threshold)})
    return nodes, refs


def _medical_doc(rng) -> tuple[dict, list[RefVariable], np.ndarray]:
    """The medical demo's shape: two indicator questions by plane angle, patient on axis 1."""
    nodes, variables = [], []
    for name in ("a_helps", "b_helps"):
        alpha = float(MEDICAL_ANGLES[rng.integers(len(MEDICAL_ANGLES))])
        t = np.deg2rad(alpha)
        hi, lo = np.array([np.cos(t), np.sin(t)]), np.array([-np.sin(t), np.cos(t)])
        nodes.append({"name": name, "values": [0, 1], "basis_angle_degrees": alpha})
        variables.append(RefVariable(name, [0.0, 1.0], [lo[None, :], hi[None, :]]))
    doc = {"context": "medical-demo", "dimension": 2, "state": {"vector": [[1.0, 0.0], [0.0, 0.0]]}, "variables": nodes}
    return doc, variables, np.array([1.0, 0.0], dtype=complex)


def _explicit_doc(rng, deal: Deal, d: int, density: bool) -> tuple[dict, list[RefVariable], np.ndarray]:
    """Explicit eigenvector groups, some degenerate; at least one binary variable."""
    n_vars = 3 if d == 16 else deal("variables", (2, 3))
    nodes, variables = [], []
    for i in range(n_vars):
        m = 2 if i == 0 else deal(f"values.d{d}", range(2, min(d, 6) + 1))
        g = random_variable(rng, f"q{i}", d, random_sizes(rng, d, m))
        nodes.append({"name": g["name"], "values": g["values"], "eigenvectors": [[_cvec(row) for row in grp] for grp in g["groups"]]})
        variables.append(RefVariable(g["name"], g["values"], g["groups"]))
    if density:
        state = random_density(rng, d)
        state_node = {"density": [_cvec(row) for row in state]}
    else:
        state = random_vector(rng, d)
        state_node = {"vector": _cvec(state)}
    doc = {"context": f"explicit-d{d}", "dimension": d, "state": state_node, "variables": nodes}
    return doc, variables, state


def _malformed(rng, deal: Deal, kind: str) -> tuple[dict, str]:
    """A valid document with one defect the parser rejects, and the path it names."""
    if kind == "ragged_matrix":
        doc, variables, state = _explicit_doc(rng, deal, deal("d.malformed", (3, 4)), density=True)
        doc["queries"], _ = _queries(rng, deal, state, variables)
        doc["state"]["density"][0].pop()
        return doc, "state.density"
    doc, variables, state = _explicit_doc(rng, deal, deal("d.malformed", (3, 4)), density=False)
    doc["queries"], _ = _queries(rng, deal, state, variables)
    if kind == "non_orthonormal":
        i = int(rng.integers(len(doc["variables"])))
        doc["variables"][i]["eigenvectors"][0][0][0][0] += 0.05
        return doc, f"variables[{i}]"
    if kind == "undeclared_variable":
        doc["queries"].append({"kind": "distribution", "variable": "undeclared"})
        return doc, f"queries[{len(doc['queries']) - 1}].variable"
    doc["state"]["vector"] = [[1.05 * re, 1.05 * im] for re, im in doc["state"]["vector"]]
    return doc, "state.vector"


def _cli_call(cli, argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def check_analyze(result, fmt: str, expected: dict) -> str | None:
    """Exit status, stream contents and every reported number of one analyze call."""
    code, out, err = result
    if "location" in expected:
        prefix = f"scenario error: {expected['location']}: "
        if code != 1 or out or not err.startswith(prefix):
            return f"expected exit 1 with {prefix!r}, got exit {code}, stderr {err[:160]!r}"
        return None
    if code != 0 or err:
        return f"exit {code}, stderr {err[:160]!r}"
    try:
        parsed = ref.PARSERS[fmt](out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable {fmt} report: {exc!r}"
    return ref.compare_report(parsed, expected)


def build_analyze_mix(rng, workdir: str) -> Workload:
    deal = Deal(rng)
    docs = []  # (tags, document, expected)
    for _ in range(N_MEDICAL):
        docs.append(("medical",) + _medical_doc(rng))
    for _ in range(N_EXPLICIT):
        docs.append(("explicit",) + _explicit_doc(rng, deal, deal("d.explicit", (3, 4)), density=False))
    for _ in range(N_DENSITY):
        docs.append(("density",) + _explicit_doc(rng, deal, deal("d.density", (3, 4)), density=True))
    for _ in range(N_D16):
        docs.append(("d16",) + _explicit_doc(rng, deal, 16, density=False))
    entries = []
    for kind, doc, variables, state in docs:
        doc["queries"], refs = _queries(rng, deal, state, variables)
        entries.append((kind, doc, {"dimension": doc["dimension"], "queries": refs}))
    for kind in MALFORMED_KINDS:
        for _ in range(N_MALFORMED_EACH):
            doc, location = _malformed(rng, deal, kind)
            entries.append(("malformed", doc, {"location": location}))
    order = rng.permutation(len(entries))

    cli = PREPARE["analyze_mix"]({})
    texts, paths = [], []
    for n, idx in enumerate(order):
        text = json.dumps(entries[idx][1])
        path = os.path.join(workdir, f"doc{n:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        texts.append(text)
        paths.append(path)

    ops = []
    for k in range(len(FORMATS)):
        for n, idx in enumerate(order):
            kind, doc, expected = entries[idx]
            fmt = FORMATS[(n + k) % len(FORMATS)]
            tags = {"op": "analyze", "doc": kind, "d": doc["dimension"], "fmt": fmt, "valid": kind != "malformed"}
            ops.append(Op(tags, _cli_call(cli, ["analyze", paths[n], "--format", fmt]),
                          lambda res, fmt=fmt, expected=expected: check_analyze(res, fmt, expected)))
    inputs = {"documents": texts}
    return Workload("analyze_mix", inputs, {}, ops)


# ---------------------------------------------------------------------------
# engine_calls

ENGINE_DIMS = (2, 8, 16)
ENGINE_KINDS = (
    "outcome_distribution", "expectation", "expectation_of_function", "collapse",
    "sequential_probability", "conjunction_report", "total_probability_report", "sure_thing_check",
)
ENGINE_VARIANTS = 24  # calls per (dimension, kind) in one round


def square(u: float) -> float:
    return u * u


def _close(pairs) -> str | None:
    """``pairs`` of (name, got, want); None when every value agrees."""
    for name, got, want in pairs:
        if not abs(float(got) - float(want)) <= ref.VALUE_TOL:
            return f"{name} = {got!r}, reference {want!r}"
    return None


def _engine_spec(rng) -> dict:
    dims = {}
    for d in ENGINE_DIMS:
        if d == 2:
            variables = [random_variable(rng, f"x{i}", 2, [1, 1]) for i in range(3)]
        else:
            variables = [
                random_variable(rng, "m0", d, random_sizes(rng, d, 3)),
                random_variable(rng, "m1", d, random_sizes(rng, d, 5)),
                random_variable(rng, "c0", d, [d // 2, d - d // 2]),
                random_variable(rng, "c1", d, [3, d - 3]),
            ]
        dims[str(d)] = {
            "variables": [{**v, "groups": [encode(g) for g in v["groups"]]} for v in variables],
            "vectors": [encode(random_vector(rng, d)) for _ in range(4)],
            "densities": [encode(random_density(rng, d)) for _ in range(2)],
        }
    return {"dims": dims}


def _engine_op(rng, kind: str, d: int, variant: int, refs: dict, prog: dict, engine, phenomena) -> tuple[Op, dict]:
    """One call of ``kind``; ``refs`` holds the numpy views of what ``prog`` prepared."""
    refvars = refs["variables"]
    binary = [v for v in refvars if len(v.values) == 2 and (d == 2 or v.name.startswith("c"))]
    use_density = kind in ("outcome_distribution", "expectation") and variant % 2 == 1
    pool = "densities" if use_density else "vectors"
    s = int(rng.integers(len(refs[pool])))
    state, ref_state = prog[pool][s], refs[pool][s]
    pvar = prog["variables"]
    tags = {"op": kind, "d": d, "state": "density" if use_density else "vector"}
    params = {"kind": kind, "d": d, "state": [pool, s]}

    def event():
        v, u = random_event(rng, refvars)
        return v, u, pvar[v.name].projector_for(u)

    if kind in ("outcome_distribution", "expectation", "expectation_of_function"):
        v = refvars[(variant // 2) % len(refvars)]
        pairs = v.sorted_pairs()
        probs = [ref.probability(ref_state, p) for _, p in pairs]
        var = pvar[v.name]
        params["variable"] = v.name
        if kind == "outcome_distribution":
            run = lambda: engine.outcome_distribution(state, var)
            check = lambda out: _close(
                [(f"value_{j}", a, u) for j, (a, (u, _)) in enumerate(zip(out.values, pairs))]
                + [(f"p_{j}", a, p) for j, (a, p) in enumerate(zip(out.probabilities, probs))]
            ) if len(out.probabilities) == len(probs) else "wrong outcome count"
        elif kind == "expectation":
            want = sum(u * p for (u, _), p in zip(pairs, probs))
            run = lambda: engine.expectation(state, var)
            check = lambda out: _close([("expectation", out, want)])
        else:
            want = sum(square(u) * p for (u, _), p in zip(pairs, probs))
            run = lambda: engine.expectation_of_function(state, var, square)
            check = lambda out: _close([("expectation_of_function", out, want)])
    elif kind == "collapse":
        v, u, _ = event()
        phi = v.proj(u) @ ref_state
        want = phi / np.linalg.norm(phi)
        var = pvar[v.name]
        params["event"] = [v.name, u]
        run = lambda: engine.collapse(state, var, u)
        check = lambda out: None if np.max(np.abs(out.amplitudes - want)) <= ref.VALUE_TOL else "collapsed state differs"
    elif kind == "sequential_probability":
        steps = [random_event(rng, refvars) for _ in range(2 + variant % 5)]
        want = ref.chain(ref_state, [v.proj(u) for v, u in steps])
        prog_steps = [(pvar[v.name], u) for v, u in steps]
        params["steps"] = [[v.name, u] for v, u in steps]
        run = lambda: engine.sequential_probability(state, prog_steps)
        check = lambda out: _close([("probability", out, want)])
    elif kind == "conjunction_report":
        (va, ua, pa), (vb, ub, pb) = event(), event()
        want = ref.conjunction(ref_state, va.proj(ua), vb.proj(ub))
        params["events"] = [[va.name, ua], [vb.name, ub]]
        fields = {"p_first": "p_a", "p_second": "p_b", "p_first_then_second": "p_a_then_b",
                  "p_second_then_first": "p_b_then_a", "order_asymmetry": "order_asymmetry"}
        run = lambda: phenomena.conjunction_report(state, pa, pb)

        def check(out):
            (flag, margin), = want["flags"].values()
            if margin > ref.VALUE_TOL and out.conjunction_flag != flag:
                return "conjunction_flag differs"
            return _close((k, getattr(out, a), want["values"][k]) for k, a in fields.items())
    elif kind == "total_probability_report":
        part = refvars[variant % len(refvars)]
        vt, ut, pt = event()
        want = ref.total_probability(ref_state, part.sorted_pairs(), vt.proj(ut))
        partition = pvar[part.name]
        params["partition"], params["target"] = part.name, [vt.name, ut]
        run = lambda: phenomena.total_probability_report(state, partition, pt)
        check = lambda out: _close(
            [(k, getattr(out, k), w) for k, w in want["values"].items()]
            + [(f"term[{u}]", t, w) for t, (u, w) in zip(out.partition_terms, want["keyed"]["term"])]
        ) if len(out.partition_terms) == len(want["keyed"]["term"]) else "wrong term count"
    else:
        cond = binary[variant % len(binary)]
        vc, uc, pc = event()
        threshold = round(float(rng.uniform(0.3, 0.7)), 3)
        want = ref.sure_thing(ref_state, cond.sorted_pairs(), vc.proj(uc), threshold)
        condition = pvar[cond.name]
        params["condition"], params["choice"], params["threshold"] = cond.name, [vc.name, uc], threshold
        run = lambda: phenomena.sure_thing_check(state, condition, pc, threshold)

        def check(out):
            (flag, margin), = want["flags"].values()
            if margin > ref.VALUE_TOL and out.violation_flag != flag:
                return "violation_flag differs"
            return _close(
                [("p_choice_unconditional", out.p_unconditional, want["values"]["p_choice_unconditional"]),
                 ("interference", out.interference, want["values"]["interference"])]
                + [(f"p_choice_given[{u}]", c, w) for c, (u, w) in zip(out.conditionals, want["keyed"]["p_choice_given"])]
            )
    return Op(tags, run, check), params


def build_engine_calls(rng, workdir: str) -> Workload:
    from qdecision import engine, phenomena

    spec = _engine_spec(rng)
    prepared = PREPARE["engine_calls"](spec)
    ops, params = [], []
    for d in ENGINE_DIMS:
        node = spec["dims"][str(d)]
        refs = {
            "variables": [RefVariable(v["name"], v["values"], [decode(g) for g in v["groups"]]) for v in node["variables"]],
            "vectors": [decode(a) for a in node["vectors"]],
            "densities": [decode(m) for m in node["densities"]],
        }
        for kind in ENGINE_KINDS:
            for variant in range(ENGINE_VARIANTS):
                op, p = _engine_op(rng, kind, d, variant, refs, prepared[d], engine, phenomena)
                ops.append(op)
                params.append(p)
    order = rng.permutation(len(ops))
    return Workload("engine_calls", {"spec": spec, "ops": [params[i] for i in order]}, spec, [ops[i] for i in order])


# ---------------------------------------------------------------------------
# bulk_numeric

# One round, weighted so that r = 32, r <= 16 and the spin demo each take
# about a third of it (about 4.5 s on a 2-core x86 host): a round trip costs
# about 750 ms at r = 32, 51 ms at r = 16 and 5.5 ms at r = 8, and the spin
# demo about 100 ms. Each entry is (distinct inputs, repeats of each per
# round); repeating a few inputs gives every one of them many timings.
TOMOGRAPHY = {(8, False): (4, 17), (8, True): (4, 17), (16, False): (2, 4), (16, True): (2, 4),
              (32, False): (1, 1), (32, True): (1, 1)}
SPIN = (5, 3)


def _tomography_op(engine, rho, rho_ref: np.ndarray, r: int, noise: np.ndarray | None, counters: dict) -> Op:
    bound = RECONSTRUCTION_TOL if noise is None else NOISY_GAIN * float(np.linalg.norm(noise))

    def run():
        effects = engine.ic_effect_basis(r)
        probs = [engine.gpm_evaluate(rho, f) for f in effects]
        if noise is not None:
            probs = np.clip(np.asarray(probs) + noise, 0.0, 1.0)
        return engine.reconstruct_density([engine.GPMSample(f, float(p)) for f, p in zip(effects, probs)])

    def check(rec):
        if noise is not None:
            counters["noisy"] = counters.get("noisy", 0) + 1
            counters["clipped"] = counters.get("clipped", 0) + int(rec.clipped)
        err = float(np.linalg.norm(rec.rho.matrix - rho_ref))
        return None if err <= bound else f"round-trip error {err:.3e} > {bound:.3e} at r = {r}"

    return Op({"op": "tomography", "r": r, "noisy": noise is not None}, run, check)


def check_spin(result, delta_degrees: float) -> str | None:
    code, out, err = result
    if code != 0 or err:
        return f"exit {code}, stderr {err[:160]!r}"
    try:
        rows = ref.parse_text(out).results
        marg, comp = rows[1].rows, rows[2].rows
        got = {k: float(v) for k, v in {**marg, **comp}.items() if k.startswith(("p_plus", "classical", "quantum"))}
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable spin report: {exc!r}"
    delta = math.radians(delta_degrees)
    analytic = (math.pi - delta) / math.pi
    slack = 5.0 / math.sqrt(SPIN_SAMPLES)
    checks = [
        ("quantum", got.get("quantum"), math.cos(delta / 2.0) ** 2, 1e-12),
        ("classical_analytic", got.get("classical_analytic"), analytic, 1e-12),
        ("classical_estimate", got.get("classical_estimate"), analytic, slack),
        ("p_plus_a", got.get("p_plus_a"), 0.5, slack),
        ("p_plus_b", got.get("p_plus_b"), 0.5, slack),
    ]
    for name, value, want, tol in checks:
        if value is None or not abs(value - want) <= tol:
            return f"{name} = {value!r}, reference {want!r} +- {tol:.1e}"
    return None


def build_bulk_numeric(rng, workdir: str) -> Workload:
    from qdecision import cli, engine

    densities, noises = {}, {}
    for (r, noisy), (distinct, _) in TOMOGRAPHY.items():
        for i in range(distinct):
            key = f"r{r}.{'pure' if noisy else 'mixed'}{i}"
            if noisy:
                v = random_vector(rng, r)
                densities[key] = encode(np.outer(v, v.conj()))
                noises[key] = rng.normal(0.0, NOISE_SIGMA, size=r * r)
            else:
                densities[key] = encode(random_density(rng, r))
    spec = {"densities": densities}
    prepared = PREPARE["bulk_numeric"](spec)

    counters: dict = {}
    ops, params = [], []
    for key, node in densities.items():
        r = int(key.split(".")[0][1:])
        op = _tomography_op(engine, prepared[key], decode(node), r, noises.get(key), counters)
        ops += [op] * TOMOGRAPHY[(r, key in noises)][1]
    params += [{"density": key, "noise": noises[key].tolist() if key in noises else None} for key in densities]
    for _ in range(SPIN[0]):
        delta = round(float(rng.uniform(10.0, 170.0)), 1)
        argv = ["demo", "spin", "--delta-degrees", repr(delta), "--seed", str(int(rng.integers(2**31)))]
        ops += [Op({"op": "spin"}, _cli_call(cli, argv), lambda res, delta=delta: check_spin(res, delta))] * SPIN[1]
        params.append({"argv": argv})
    order = rng.permutation(len(ops))
    inputs = {"spec": spec, "ops": params, "order": order.tolist()}
    return Workload("bulk_numeric", inputs, spec, [ops[i] for i in order], counters)


FACTORIES = {
    "analyze_mix": build_analyze_mix,
    "engine_calls": build_engine_calls,
    "bulk_numeric": build_bulk_numeric,
}
