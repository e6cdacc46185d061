"""Born-rule probability calculus.

Transition and outcome probabilities, collapse, sequential chains,
expectations, likelihood effects, generalized probability measures and
density-operator reconstruction from effect probabilities.

States are rays: two state vectors are the same state when their
transition probability is 1, never by componentwise comparison.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    InconsistentSamples,
    InsufficientSpan,
    InvalidEffect,
    InvariantViolation,
    NoConvergence,
    UnknownDataLabel,
    UnknownValue,
    ZeroProbabilityOutcome,
    _shown,
)
from .linalg import (
    DensityOperator,
    Effect,
    Projector,
    StateVector,
    _frozen,
    _Immutable,
    _array,
    _check_dims,
    _eigh_lo,
    _norm,
    _real,
    _vdot,
)
from .variables import DecisionVariable, _bounded, _position, _spectral_sum

__all__ = [
    "OutcomeDistribution",
    "LikelihoodTable",
    "GPMSample",
    "DensityReconstruction",
    "transition_probability",
    "event_probability",
    "collapse_onto",
    "collapse",
    "outcome_distribution",
    "sequential_probability",
    "sequential_event_probability",
    "expectation",
    "expectation_of_function",
    "likelihood_effect",
    "gpm_evaluate",
    "ic_effect_basis",
    "reconstruct_density",
]

State = StateVector | DensityOperator
_re = complex.real.__get__  # np.complex128 subclasses complex: its real part as a float, with no np.float64 made


def transition_probability(from_state: StateVector, to_state: StateVector) -> float:
    """Born's formula, simple version: |<from|to>|^2."""
    p = abs(from_state.inner(to_state)) ** 2
    return min(float(p), 1.0)


def _born(state: State, m: np.ndarray) -> float:
    """Born rule for an operator matrix: <psi|M|psi> or trace(rho M)."""
    if isinstance(state, StateVector):
        a = state.amplitudes
        if len(a) != len(m):
            _check_dims(len(a), len(m))
        return _re(_vdot(a, m.dot(a)))  # ndarray.dot: the same zgemv call as @, without the ufunc's overhead
    rho = state.matrix
    if len(rho) != len(m):
        _check_dims(len(rho), len(m))
    return _re(_vdot(rho, m))  # trace(rho M), both Hermitian


def _event(state: State, effect: Effect) -> tuple[np.ndarray, float]:
    """The event's image, ``M psi`` or ``M rho M``, and its probability, bit for bit ``event_probability``'s."""
    m = (effect if isinstance(effect, Effect) else _as_effect(effect)).matrix
    x = state.amplitudes if isinstance(state, StateVector) else state.matrix
    if len(x) != len(m):
        _check_dims(len(x), len(m))
    if x.ndim == 1:
        phi = m.dot(x)
        return phi, _re(_vdot(x, phi))
    return m @ x @ m, _re(_vdot(x, m))


def _chain(state: State | np.ndarray, projectors: Sequence[Projector]) -> tuple[np.ndarray, float]:
    """Unnormalized state after an ordered chain of events, and its probability.

    ``P_n ... P_1 psi`` with ``||.||^2`` for a vector; for a density the
    Lüders update ``P_n ... P_1 rho P_1 ... P_n`` with its trace. The chain
    may also start from an image of ``_event``, a 1-d ``M psi`` or a 2-d ``M rho M``.
    """
    x = state.amplitudes if isinstance(state, StateVector) else getattr(state, "matrix", state)
    if x.ndim == 1:
        for p in projectors:
            m = p.matrix
            if len(m) != len(x):
                _check_dims(len(x), len(m))
            x = m.dot(x)
        # _norm(x) ** 2 without the call, in its floats: math.sqrt is np.sqrt, and ** 2 calls libm pow (s * s can differ)
        re, im = x.real, x.imag
        return x, math.sqrt(re.dot(re) + im.dot(im)) ** 2
    for p in projectors:
        m = p.matrix
        if len(m) != len(x):
            _check_dims(len(x), len(m))
        x = m @ x @ m
    return x, float(x.trace().real)


def event_probability(state: State, projector: Effect) -> float:
    """Probability of an event: an effect (a projector is one), or a matrix checked as an effect, as ``gpm_evaluate`` does.

    ``<psi|M|psi>`` for a vector state (equal to ``||P psi||^2`` when M is
    a projector), ``trace(rho M)`` for a density.
    """
    return _born(state, (projector if isinstance(projector, Effect) else _as_effect(projector)).matrix)


def collapse_onto(state: State, projector: Projector) -> State:
    """Post-measurement state after the event occurred.

    ``P psi / ||P psi||`` for a vector; the Lüders rule
    ``P rho P / trace(P rho P)`` for a density.
    """
    post, p = _chain(state, [projector])
    if p <= tol.ZERO_PROB_TOL:
        raise ZeroProbabilityOutcome(
            f"cannot condition on an outcome of probability {p:.3e}"
        )
    if isinstance(state, StateVector):
        return StateVector._trusted(amplitudes=_frozen(post / math.sqrt(p)))
    # rounding in P rho P compounds with the input's own slack, so the
    # normalized result goes through the full density check
    return DensityOperator((post + post.conj().T) / (2.0 * p))


def collapse(state: State, v: DecisionVariable, value: float) -> State:
    """State after a perfect measurement of ``v`` returned ``value``."""
    return collapse_onto(state, v.projector_for(value))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Values with their Born probabilities, which sum to one; engine-built, so not checked again."""

    values: tuple[float, ...]
    probabilities: tuple[float, ...]
    _index: Mapping[float, int] = field(repr=False, compare=False)  # the variable's rounded value keys

    def probability_of(self, value: float) -> float:
        j = _position(self._index, value)
        if j is None:
            raise UnknownValue(f"{_shown(value)} is not among the outcome values")
        return self.probabilities[j]


def outcome_distribution(state: State, v: DecisionVariable) -> OutcomeDistribution:
    """Born probabilities of every value of ``v`` in the given state."""
    probs = [_born(state, p.matrix) for p in v.eigenprojectors]  # projectors, so effects, by construction
    return OutcomeDistribution(v.values, tuple(probs), v._index)


def sequential_event_probability(state: State, projectors: Sequence[Projector]) -> float:
    """Probability of an ordered chain of events.

    ``||P_n ... P_1 psi||^2`` for a vector, ``trace(P_n ... P_1 rho P_1 ... P_n)``
    for a density. Zero is a valid result here (the chain simply never
    happens); only explicit conditioning on a null event is an error, and
    that lives in ``collapse``.
    """
    return _chain(state, projectors)[1]


def sequential_probability(
    state: State,
    steps: Sequence[tuple[DecisionVariable, float]],
) -> float:
    """Probability that measuring each variable in order gives each value."""
    projectors = [v.projector_for(value) for v, value in steps]
    return sequential_event_probability(state, projectors)


def expectation(state: State, v: DecisionVariable) -> float:
    """Expected value <psi|A|psi> or trace(rho A) of a perfect measurement."""
    return _born(state, v.operator.matrix)


def expectation_of_function(state: State, v: DecisionVariable, f) -> float:
    """Expected value of f(v): ``sum_j f(u_j) p_j`` over the Born probabilities ``outcome_distribution`` returns.

    ``f`` is evaluated once on each declared value ``u_j`` of ``v`` and weights
    the probability of ``v``'s own eigenprojector ``P_j``, so nothing is
    diagonalized and no operator is built. ``f`` may be a callable or a value
    table keyed by the declared values (matched at ``VALUE_SIG_DIGITS``).
    Images at or above 1e300 / m in size, for m values, take the Born rule on
    ``sum_j f(u_j) P_j`` instead, which keeps that operator's overflow gate:
    a non-finite f(u_j), or one that overflows the operator, raises
    ``InvariantViolation``.
    """
    if isinstance(f, Mapping):
        table = {_position(v._index, k): _real(val) for k, val in f.items()}  # value position -> image; None for no value
        images = [table.get(j) for j in range(len(v.values))]
        if None in images:
            raise InvariantViolation(f"value table has no entry for {v.values[images.index(None)]!r}")
    else:
        images = [_real(f(u)) for u in v.values]
    if _bounded(images, len(images)):  # the sum cannot overflow: no operator is built
        return sum(u * _born(state, p.matrix) for u, p in zip(images, v.eigenprojectors))
    op = _spectral_sum(images, v.eigenprojectors)
    if op is None:
        raise InvariantViolation(f"f({v.name}) must be finite and give a finite operator")
    return _born(state, op)


class LikelihoodTable(_Immutable):
    """Per-value likelihoods p(z | v = u_j) for a finite set of data labels.

    ``entries`` maps each data label to a sequence of probabilities, one per
    value of the variable, in value order. For every value the label
    probabilities must sum to one.
    """

    def __init__(self, variable: DecisionVariable, entries: Mapping[str, Sequence[float]]):
        m = len(variable.values)
        table: dict[str, np.ndarray] = {}
        for label, row in entries.items():
            arr = _array(row, float)
            if arr.size != m:
                raise DimensionMismatch(f"label {_shown(label)} has {arr.size} entries, expected {m}")
            if float(arr.min()) < 0.0 or float(arr.max()) > 1.0:
                raise InvariantViolation(f"label {_shown(label)} has likelihoods outside [0, 1]")
            try:
                key = str(label)
            except ValueError:  # only an int beyond Python's int-to-string digit limit
                raise InvariantViolation(f"label {_shown(label)} has no string form") from None
            if key in table:  # rows are keyed by string form, so one would silently replace the other
                first = next(x for x in entries if str(x) == key)
                raise InvariantViolation(f"labels {_shown(first)} and {_shown(label)} share the string form {key!r}")
            table[key] = _frozen(arr)
        if not table:
            raise InvariantViolation("likelihood table has no data labels")
        col_sums = np.sum(list(table.values()), axis=0)
        if not (float(np.abs(col_sums - 1.0).max()) <= tol.LIKELIHOOD_ROW_TOL):
            raise InvariantViolation(
                f"likelihoods must sum to 1 over labels for every value, got {col_sums}"
            )
        vars(self).update(variable=variable, entries=MappingProxyType(table))


def likelihood_effect(table: LikelihoodTable, z: str) -> Effect:
    """Evidence from observing ``z``, packaged as the effect sum_j p(z|u_j) P_j."""
    try:
        row = table.entries[str(z)]
    except (KeyError, ValueError):  # str(z) raises ValueError for an int beyond the digit limit, never a label
        raise UnknownDataLabel(
            f"{_shown(z)} is not a data label of the table (labels: {list(table.entries)})"
        ) from None
    return Effect(_spectral_sum(row, table.variable.eigenprojectors))


def _as_effect(f) -> Effect:
    try:
        return Effect(getattr(f, "matrix", f))
    except InvariantViolation as exc:
        raise InvalidEffect(str(exc)) from exc


def gpm_evaluate(state: State, f) -> float:
    """Generalized probability measure: trace(rho F), or <psi|F|psi>, for an effect F."""
    m = (f if isinstance(f, Effect) else _as_effect(f)).matrix
    if isinstance(state, DensityOperator):  # _born's density branch inline: a tomography round trip calls this r^2 times
        rho = state.matrix
        if len(rho) != len(m):
            _check_dims(len(rho), len(m))
        return _re(_vdot(rho, m))
    return _born(state, m)


@dataclass(frozen=True, slots=True, init=False)
class GPMSample:
    """One observed effect probability; the effect may be given as a matrix, as to ``gpm_evaluate``."""

    effect: Effect
    probability: float

    def __init__(self, effect: Effect, probability: float):  # once per sample: the generated one's __post_init__ costs
        if not _P_LO <= probability <= _P_HI:
            raise InvariantViolation(f"sample probability {_shown(probability)} outside [0, 1]")
        _set_effect(self, effect if isinstance(effect, Effect) else _as_effect(effect))
        _set_probability(self, probability)


# each slot's own setter, past the frozen __setattr__, and the probability range, each built once
_set_effect, _set_probability = GPMSample.effect.__set__, GPMSample.probability.__set__
_P_LO, _P_HI = -tol.PROB_FLOOR, 1.0 + tol.PROB_FLOOR


@functools.cache  # reconstruct_density and ic_effect_basis stop at MAX_DIMENSION, so at most 31 dimensions
def _upper(r: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(r, 1)``, built once per dimension as arrays no caller can make writeable."""
    return tuple(_frozen(a) for a in np.triu_indices(r, 1))


@functools.cache  # every dimension, so a family a caller holds is always the one reconstruct_density recognises
def _ic_basis(r: int) -> tuple[Effect, ...]:
    """The effects of ``ic_effect_basis(r)``, built once per dimension as windows of 2r - 1 read-only buffers.
    Effect (j, j + d) is effect (0, d) moved j places down the diagonal, so each shift d and phase has one buffer,
    (r - d - 1)(r + 1) zeros and then the (0, d) matrix, and effect (j, j + d) is its C-contiguous r x r window that
    starts j(r + 1) entries before that matrix. At r = 32 they hold 1.5 MB; a dense r^2 x r x r stack holds 16.8 MB.
    Each buffer's memory is ``bytes``, so neither a window nor its owner can be made writeable."""
    eye = np.eye(r, dtype=complex)
    pairs = (eye[0] + np.array([1.0, 1.0j])[:, None] * eye[1:, None]) / np.sqrt(2.0)  # (e_0 + c e_d) / sqrt(2)
    vectors = np.concatenate([eye[:1], pairs.reshape(-1, r)])
    shifted = []  # shift 0, then shift d >= 1 at 2d - 1 (phase 1) and 2d (phase i); effect (j, j + d) at [j]
    for q, m in enumerate(vectors[:, :, None] * vectors.conj()[:, None, :]):
        pad = (r - (q + 1) // 2 - 1) * (r + 1)
        buf = np.frombuffer(np.concatenate([np.zeros(pad, complex), m.ravel()]).tobytes(), complex)
        shifted.append([Effect._trusted(matrix=buf[pad - j * (r + 1):][: r * r].reshape(r, r)) for j in range(r - (q + 1) // 2)])
    j, k = _upper(r)
    return (*shifted[0], *(shifted[2 * (b - a) - 1 + p][a] for a, b in zip(j.tolist(), k.tolist()) for p in (0, 1)))


def _check_bound(r: int) -> None:
    """Refuse a dimension above ``MAX_DIMENSION`` before any work that scales with it."""
    if r > tol.MAX_DIMENSION:
        raise DimensionMismatch(f"dimension must be at most {tol.MAX_DIMENSION}, got {_shown(r, str)}")


def ic_effect_basis(r: int) -> list[Effect]:
    """Informationally complete family of r^2 rank-one projector effects.

    Projectors onto e_j, onto (e_j + e_k)/sqrt(2) and onto (e_j + i e_k)/sqrt(2) for j < k, linearly
    independent as Hermitian matrices, so exact probabilities on them determine the density operator.
    Every call returns a new list of the same shared, read-only effects, built once per dimension.
    r runs from 2 to ``MAX_DIMENSION``.
    """
    if r < 2:
        raise DimensionMismatch(f"informational completeness needs dimension >= 2, got {_shown(r, str)}")
    _check_bound(r)  # before the r^2 effects of r x r entries are built
    return list(_ic_basis(r))


def _hermitian_coords(mats: np.ndarray) -> np.ndarray:
    """Design matrix of a stack of n r x r matrices: trace(rho M_i) against the r diagonal
    parameters, then Re and Im of each upper entry (i < j, row-major), doubled for its mirror."""
    n, r, _ = mats.shape
    i, j = _upper(r)
    re = 2 * (i * r + j)  # Re of entry (i, j) in a flattened matrix's float view; Im follows
    cols = np.concatenate([2 * (r + 1) * np.arange(r), np.stack([re, re + 1], axis=1).ravel()])
    design = np.take(np.ascontiguousarray(mats, dtype=complex).reshape(n, -1).view(np.float64), cols, axis=1)
    design[:, r:] *= 2.0
    return design


@functools.cache
def _slots(r: int) -> np.ndarray:
    """Float-view places of the diagonal re, then of each upper entry's re, its mirror's re, upper im and mirror im."""
    i, j = _upper(r)
    up, lo = 2 * (i * r + j), 2 * (j * r + i)
    return _frozen(np.concatenate([2 * (r + 1) * np.arange(r), up, lo, up + 1, lo + 1]))


def _hermitian_from_coords(diag: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The matrix of coordinates ``diag``, then ``re`` and ``im`` of each upper entry (row-major), bit for bit
    ``re + 1j * im`` above the diagonal and ``re - 1j * im`` below. That product adds t = im * 0 to the real part,
    so a zero real part may take t's sign; a zero imaginary one is +0."""
    r = len(diag)
    t = im * 0.0
    out = np.zeros((r, r), dtype=complex)
    out.view(np.float64).put(_slots(r), np.concatenate([diag, re + t, re - t, im + 0.0, 0.0 - im]))
    return out


@dataclass(frozen=True, init=False)
class DensityReconstruction:
    """Result of a density reconstruction.

    ``clipped`` reports whether the least-squares minimizer had to be
    projected back to the positive cone; ``min_eigenvalue`` is the smallest eigenvalue
    of the raw minimizer before any clipping; ``condition_number`` is cond(D^T D).
    """

    rho: DensityOperator
    residual: float
    clipped: bool
    min_eigenvalue: float
    condition_number: float

    def __init__(self, rho, residual, clipped, min_eigenvalue, condition_number):  # one write, as phenomena's reports
        self.__dict__.update(rho=rho, residual=residual, clipped=clipped, min_eigenvalue=min_eigenvalue,
                             condition_number=condition_number)


def _ic_fit(mu: np.ndarray, r: int) -> tuple[np.ndarray, float]:
    """The minimizer and its residual on ``_ic_basis(r)``, whose design D is square and block-triangular.

    G^-1 c is +1 on the diagonal parameters, -1 on Re and +1 on Im, so lam = (1 - sum p_j) / r pins the trace;
    with p' = p + lam and d' = (p'_j + p'_k) / 2, rho_jj = p'_j, Re rho_jk = p+_jk - d', Im rho_jk = d' - pi_jk.
    """
    diag = mu[:r] + (1.0 - mu[:r].sum()) / r
    j, k = _upper(r)
    mid = (diag[j] + diag[k])[:, None] / 2.0
    d = mu[r:].reshape(-1, 2) - mid  # x is (Re, Im) = (d_0, -d_1), written without building x
    fitted = np.concatenate([diag, (mid + d).ravel()])  # D x, by the family's forward map: mid + x * sign, sign^2 = 1
    return _hermitian_from_coords(diag, d[:, 0], d[:, 1] * -1.0), _norm(fitted - mu)


def reconstruct_density(samples: Sequence[GPMSample]) -> DensityReconstruction:
    """Least-squares inversion of effect probabilities to a density operator.

    Solves ``min_rho sum_i (trace(rho F_i) - mu_i)^2`` over Hermitian matrices with trace 1, D the
    design over the r^2 real parameters and ``G = D^T D``; ``cond(G) <= GRAM_CONDITION_MAX`` gates.
    The shared effects of ``ic_effect_basis(r)``, in its order, are inverted in closed form. Any other
    family goes through the eigenvalues of G and one solve ``G [x0, g] = [D^T mu, c]``, c the trace
    vector, giving ``x = x0 + (1 - c.x0) / (c.g) g``. Eigenvalues of the minimizer below
    ``-PSD_CLIP_TOL`` are clipped, the trace renormalized, and the adjustment reported.

    Raises:
        DimensionMismatch: effects of two dimensions, or of one above ``MAX_DIMENSION``.
        InsufficientSpan: no samples, or ``cond(G) > GRAM_CONDITION_MAX`` (the
            effects do not span the Hermitian space, or too weakly to invert).
        InconsistentSamples: the residual exceeds ``NOISE_BOUND``.
        NoConvergence: the eigensolver gives nan eigenvalues for the minimizer.
    """
    if not samples:
        raise InsufficientSpan("no samples given")
    r = samples[0].effect.dim
    _check_bound(r)  # before the r^2 x r^2 design, or a family to compare with, is built
    ic = len(samples) == r * r and tuple([s.effect for s in samples]) == _ic_basis(r)  # by identity: effects define no ==
    if not ic:  # the shared family holds r x r effects by construction
        for s in samples:
            _check_dims(r, s.effect.dim)

    mu = np.fromiter([s.probability for s in samples], float, len(samples))  # slot reads: faster than map over an attrgetter
    if ic:  # the eigenvalues of G span [1 / l, l], l = (r + 1 + sqrt((r + 1)^2 - 4)) / 2
        cond = ((r + 1 + math.sqrt((r + 1) ** 2 - 4.0)) / 2.0) ** 2
    else:
        mats = [s.effect.matrix for s in samples]
        design = _hermitian_coords(np.array(mats))  # the dims check above makes this a stack
        gram, d_mu = design.T @ design, design.T @ mu
        del design  # at r = 32 the design is 8 MB; peak memory need not hold it through the solve
        lam = np.linalg.eigvalsh(gram)
        cond = float(lam[-1] / lam[0]) if lam[0] > 0.0 else np.inf
    if not (cond <= tol.GRAM_CONDITION_MAX):
        raise InsufficientSpan(
            f"effects span the Hermitian space too weakly: cond(D^T D) = {cond:.3e} > {tol.GRAM_CONDITION_MAX:.1e}"
        )

    if ic:
        raw, residual = _ic_fit(mu, r)
    else:
        c = np.arange(d_mu.size) < r  # the trace vector: 1 on the r diagonal parameters, else 0
        x0, g = np.linalg.solve(gram, np.stack([d_mu, c], axis=1)).T
        x = x0 + ((1.0 - x0[:r].sum()) / g[:r].sum()) * g
        raw = _hermitian_from_coords(x[:r], x[r::2], x[r + 1::2])
        # a second copy of the effects: holding the first stack or using the design instead raised peak RSS
        fitted = np.reshape(mats, (len(mats), -1)) @ raw.T.ravel()  # trace(raw F_i)
        residual = _norm(fitted.real - mu)
    if not (residual <= tol.NOISE_BOUND):
        raise InconsistentSamples(
            f"least-squares residual {residual:.3e} exceeds noise bound {tol.NOISE_BOUND:.1e}"
        )

    w, v = _eigh_lo(raw, signature="D->dD")  # nan eigenvalues where LAPACK does not converge, else ascending ones
    min_eig = float(w[0])
    if min_eig != min_eig:
        raise NoConvergence("eigensolver did not converge on the least-squares minimizer")
    clipped = min_eig < -tol.PSD_CLIP_TOL
    if min_eig < -tol.DENSITY_EIG_FLOOR:
        # clip below the density validity floor as well, but only eigenvalues
        # past PSD_CLIP_TOL count as a reported adjustment
        w = np.maximum(w, 0.0)  # np.clip(w, 0.0, None) calls this ufunc, through Python wrappers
        w = w / w.sum()
        raw = (v * w) @ v.conj().T
        raw = (raw + raw.conj().T) / 2.0
    # a density by construction: eigh fixed the spectrum, the constraint or the clip the trace, every fit is self-adjoint
    return DensityReconstruction(DensityOperator._trusted(matrix=_frozen(raw)), residual, clipped, min_eig, cond)
