"""Every tolerance comes from the one table in ``qdecision.tolerances``."""

import inspect

import qdecision
from qdecision import __version__
from qdecision.cli import main

TOLERANCES_OUTPUT = f"""engine_version: {__version__}
HERMITIAN_ENTRY_TOL   0.00000000000100000000000
UNIT_NORM_TOL         0.000000000100000000000
PROJECTOR_IDEM_TOL    0.000000000100000000000
PROJECTOR_TRACE_TOL   0.0000000100000000000
DENSITY_EIG_FLOOR     0.000000000100000000000
DENSITY_TRACE_TOL     0.000000000100000000000
EFFECT_EIG_TOL        0.000000000100000000000
UNITARY_TOL           0.000000000100000000000
HERMITIAN_REL_TOL     0.0000000100000000000
EIG_RESIDUAL_TOL      0.000000000100000000000
ORTHONORMALITY_TOL    0.000000000100000000000
DEGENERACY_TOL_SCALE  0.0000000100000000000
SPAN_RANK_TOL         0.000000000100000000000
PROJECTOR_MATCH_TOL   0.0000000100000000000
VALUE_SIG_DIGITS      12
ZERO_PROB_TOL         0.00000000000100000000000
LIKELIHOOD_ROW_TOL    0.000000000100000000000
PROB_FLOOR            0.00000000000100000000000
PSD_CLIP_TOL          0.0000000100000000000
NOISE_BOUND           0.00000100000000000
GRAM_CONDITION_MAX    1000000.00000
MAX_DIMENSION         32
MAX_SPIN_SAMPLES      10000000
FLOAT_SIG_DIGITS      12
"""


def test_no_exported_callable_takes_a_tolerance():
    offenders = []
    for name in dir(qdecision):
        obj = getattr(qdecision, name)
        target = obj.__init__ if inspect.isclass(obj) else obj
        if name.startswith("_") or not inspect.isfunction(target):
            continue
        for param in inspect.signature(target).parameters:
            if param.endswith(("_tol", "_floor", "_bound")):
                offenders.append(f"{name}({param})")
    assert offenders == []


def test_tolerance_table_output_is_unchanged(capsys):
    assert main(["--tolerances"]) == 0
    assert capsys.readouterr().out == TOLERANCES_OUTPUT
