"""The numeric tolerances of the engine.

This table is the only source of tolerances: every check reads its
constant from here, no function or type takes a tolerance argument, and
``qdecision --tolerances`` prints exactly these values.
"""

from __future__ import annotations

# Type invariants, checked at construction.
HERMITIAN_ENTRY_TOL = 1e-12     # max |A_ij - conj(A_ji)| for self-adjointness
UNIT_NORM_TOL = 1e-10           # |  ||psi|| - 1 |
PROJECTOR_IDEM_TOL = 1e-10      # || P@P - P ||_F
PROJECTOR_TRACE_TOL = 1e-8      # | trace(P) - rank |
DENSITY_EIG_FLOOR = 1e-10       # eigenvalues >= -floor
DENSITY_TRACE_TOL = 1e-10       # | trace(rho) - 1 |
EFFECT_EIG_TOL = 1e-10          # spectrum within [-tol, 1 + tol]
UNITARY_TOL = 1e-10             # || W^dag W - I ||_F

# Eigensolver contract.
HERMITIAN_REL_TOL = 1e-8        # relative || A - A^dag ||_F gate before solving
EIG_RESIDUAL_TOL = 1e-10        # || A - V L V^dag ||_F <= tol * max(1, ||A||_F)
ORTHONORMALITY_TOL = 1e-10      # || V^dag V - I ||_F
DEGENERACY_TOL_SCALE = 1e-8     # grouping gap = scale * max(1, spectral range)
SPAN_RANK_TOL = 1e-10           # smallest singular value gate for spans

# Variables and relatedness.
PROJECTOR_MATCH_TOL = 1e-8      # Frobenius pairing distance for one-to-one test
VALUE_SIG_DIGITS = 12           # significant digits when deduplicating f(u)

# Probability calculus.
ZERO_PROB_TOL = 1e-12           # conditioning on anything less likely is an error
LIKELIHOOD_ROW_TOL = 1e-10      # sum_z p(z|u) = 1
PROB_FLOOR = 1e-12              # probabilities may undershoot 0 by at most this

# Density reconstruction.
PSD_CLIP_TOL = 1e-8             # eigenvalues below -tol trigger reported clipping
NOISE_BOUND = 1e-6              # residual bound before samples count as inconsistent
GRAM_CONDITION_MAX = 1e6        # cond(D^T D) of the effect design, enforced by reconstruct_density

# Scope: the largest dimension a document, ``demo reconstruct --dim``, ``ic_effect_basis`` or ``run_reconstruct_demo``
# may ask for (the IC family is r^2 effects of r x r entries, held as windows of 2r - 1 buffers and cached once built
# for each dimension: 1.5 MB at 32, 13 MB for all 31), and the most directions ``demo spin --samples`` or the spin
# library may draw. The draw streams through fixed blocks, so this bounds time, not memory: 10^7 of them take about
# 0.1 s and peak at about 36 MB RSS, the interpreter included.
MAX_DIMENSION = 32
MAX_SPIN_SAMPLES = 10_000_000

# Reporting.
FLOAT_SIG_DIGITS = 12           # significant digits for every float in reports


def all_defaults() -> dict[str, float]:
    """Name -> value map of every constant above, in definition order."""
    return {
        name: value
        for name, value in globals().items()
        if name.isupper() and isinstance(value, (int, float))
    }
