"""Program-side preparation of each workload, timed as ``setup_s``.

Preparation is what a user does before the first call: import qdecision
and turn the generated arrays into the program's validated types. The
benchmark runs it in-process before its loop, and as a script in fresh
interpreters to time it:

    python3 bench/prepare.py WORKLOAD SPEC_JSON

The script imports qdecision, loads the spec, prepares, and prints the
seconds spent loading the spec, which the caller subtracts because input
generation and transport are benchmark-side.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def encode(arr) -> dict:
    """JSON form of a complex array."""
    arr = np.asarray(arr, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def decode(node: dict) -> np.ndarray:
    return np.array(node["re"], dtype=float) + 1j * np.array(node["im"], dtype=float)


def prepare_analyze_mix(spec: dict):
    """The CLI path prepares nothing beyond importing its entry module."""
    import qdecision.cli

    return qdecision.cli


def prepare_engine_calls(spec: dict) -> dict:
    """Variables, vector states and density states per dimension."""
    from qdecision import DensityOperator, StateVector, variable_from_spectrum

    prepared = {}
    for d, node in spec["dims"].items():
        prepared[int(d)] = {
            "variables": {
                v["name"]: variable_from_spectrum(
                    v["name"], v["values"], [list(decode(g)) for g in v["groups"]]
                )
                for v in node["variables"]
            },
            "vectors": [StateVector(decode(a)) for a in node["vectors"]],
            "densities": [DensityOperator(decode(m)) for m in node["densities"]],
        }
    return prepared


def prepare_bulk_numeric(spec: dict) -> dict:
    """One validated density operator per generated density matrix."""
    from qdecision import DensityOperator

    return {key: DensityOperator(decode(m)) for key, m in spec["densities"].items()}


PREPARE = {
    "analyze_mix": prepare_analyze_mix,
    "engine_calls": prepare_engine_calls,
    "bulk_numeric": prepare_bulk_numeric,
}


def main(argv: list[str]) -> int:
    workload, spec_path = argv
    import qdecision  # noqa: F401  (the import is part of what is timed)

    t0 = time.perf_counter()
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    load_s = time.perf_counter() - t0
    PREPARE[workload](spec)
    print(repr(load_s))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
