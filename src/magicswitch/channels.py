"""States, Kraus channels and Choi states, plus the channel zoo.

Everything here is immutable after construction: matrices are stored as
read-only copies and all operations are pure functions, so a cached object
can be handed to every caller that asks for it, none able to alter it.

A channel holds its Kraus operators as one ``(k, d_out, d_in)`` stack, so
every product of operators is a whole-stack one.  An operand that several
products share is the right factor of one BLAS product with the others
stacked above it: applying a channel forms every K_i M of a chunk of grid
entries as one ``(chunk k d, d) @ (d, d)`` product, and composing or
switching two channels forms every L_i R_j as one product per R_j
(``_pair_products``).  Each entry still sums the same d terms in the same
order, so it has the bits of its own ``L_i @ R_j``.  The sums over
operators (applying a channel, taking its Choi state) run in operator
order, which gives the same bits as accumulating the operators one by one.
Each object is checked once, where its matrix enters the package: a state
or Choi state in its constructor, a channel's Kraus operators (finite, and
complete within tolerance) in ``KrausChannel(...)``.  What an operation
derives from checked inputs, or what a zoo formula writes down complete
for every valid parameter, holds the checks by construction and is built
by ``_derived`` without them.

A derived object may carry a leading grid axis: a zoo channel given an
array of noise values is one ``(N, k, d_out, d_in)`` stack, and every
operation here maps such a grid entry by entry, with the bits each entry
gets alone.  Dimensions are read off the last axes.  The public
constructors take one object.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT_TOL
from .gates import HADAMARD, T_GATE, fourier_gate, heisenberg_weyl_operators, plus_state, qutrit_t_gate
from .linalg import DimensionMismatchError, assert_psd, dagger, partial_trace, pauli_strings

logger = logging.getLogger(__name__)


class StateValidationError(ValueError):
    """Matrix does not describe a (possibly unnormalized) quantum state."""


class ChannelCompletenessError(ValueError):
    """Kraus operators are not finite, or not complete within tolerance."""


def _readonly(matrix) -> np.ndarray:
    """A read-only complex copy of ``matrix``, or of a sequence of them as one stack."""
    out = np.array(matrix, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def _derived(cls, array: np.ndarray, **fields):
    """``cls(array, **fields)`` without its checks; ``array``, the first field
    (a state's matrix or a channel's Kraus stack, with any leading grid
    axes), is stored read-only.  Every caller passes an array it has just
    computed and holds nowhere else, so it is stored without a copy."""
    array = np.asarray(array, dtype=complex)
    array.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update({next(iter(cls.__dataclass_fields__)): array}, **fields)
    return obj


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive Hermitian matrix: a state, or an unnormalized conditional
    state (a post-selected branch carries its outcome probability as its
    trace).  Whether it is normalized is read off the trace.

    Parameters
    ----------
    matrix : ndarray
        Nonempty square complex matrix of finite entries; must be Hermitian
        and positive semidefinite within the package tolerances, with a
        nonnegative trace.  Its exactly Hermitian part is stored, so no
        residue reaches a Wigner value.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
            raise StateValidationError(f"density operator must be square and nonempty, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise StateValidationError("density operator has entries that are not finite")
        if not np.abs(mat - dagger(mat)).max() <= DEFAULT_TOL.eq:
            raise StateValidationError("density operator is not Hermitian within tolerance")
        mat = 0.5 * (mat + dagger(mat))
        # Eigenvalue floor sits at the equality tolerance: anything in
        # [-1e-10, 0) is rounding residue, anything lower is a real error.
        assert_psd(mat, DEFAULT_TOL.eq * max(1.0, abs(np.trace(mat))), "density operator")
        tr = np.trace(mat).real
        if tr < -DEFAULT_TOL.psd:
            raise StateValidationError(f"density operator has negative trace {tr!r}")
        object.__setattr__(self, "matrix", _readonly(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def trace(self):
        """The trace, a float, or one per entry of a grid."""
        return _real_trace(self.matrix)

    @property
    def normalized(self):
        """Whether the trace is 1 within the positivity tolerance (per entry
        of a grid)."""
        return abs(self.trace - 1.0) <= DEFAULT_TOL.psd

    @classmethod
    def pure(cls, vec) -> "DensityOperator":
        vec = np.asarray(vec, dtype=complex)
        norm = np.linalg.norm(vec)
        if not 0 < norm < np.inf:
            raise StateValidationError(f"a pure state needs a nonzero finite vector, got norm {norm}")
        vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityOperator":
        # np.eye's own refusals do not name d, and a bool is an Integral np.eye refuses.
        if not (isinstance(d, numbers.Integral) and not isinstance(d, bool) and d >= 0):
            raise StateValidationError(f"a maximally mixed state needs an integer dimension d >= 1, got d={d}")
        return cls(np.eye(d, dtype=complex) / d)

    def renormalized(self) -> tuple["DensityOperator", float]:
        """Scale to unit trace; returns (state, factor) with factor the old
        trace, or (self, 1.0) when the trace is 1 within the equality
        tolerance.  A grid is scaled entry by entry, with one factor per
        entry; a trace at or below the positivity tolerance is refused."""
        tr = self.trace
        if not np.all(tr > DEFAULT_TOL.psd):
            raise StateValidationError(f"cannot renormalize state with trace {np.min(tr):.3e}")
        if np.ndim(tr):  # a grid entry whose trace is already 1 keeps its matrix: x / 1.0 == x
            factor = np.where(abs(tr - 1.0) <= DEFAULT_TOL.eq, 1.0, tr)
            return _derived(DensityOperator, self.matrix / factor[:, None, None]), factor
        if abs(tr - 1.0) <= DEFAULT_TOL.eq:
            return self, 1.0
        return _derived(DensityOperator, self.matrix / tr), tr  # positive / positive


def log_renormalized(log: logging.Logger, who: str, factor) -> None:
    """One INFO line on ``log`` per renormalization factor (a number, or one
    per grid entry) that is not 1."""
    if log.isEnabledFor(logging.INFO):
        for f in np.atleast_1d(factor):
            if f != 1.0:
                log.info("%s renormalized input by factor %.12g", who, f)


@lru_cache(maxsize=None)
def plus_density(d: int) -> DensityOperator:
    """|+><+| in dimension ``d``, the switch's control and target input.
    Built and checked once per dimension; being immutable, it is shared."""
    return DensityOperator.pure(plus_state(d))


def _real_trace(matrices: np.ndarray):
    """Real part of the trace over the last two axes: a float for one
    matrix, an array for a stack."""
    tr = np.trace(matrices, axis1=-2, axis2=-1).real
    return float(tr) if tr.ndim == 0 else tr


def _completeness_residual(ops: np.ndarray) -> float:
    """max |sum_i K_i^dag K_i - I| over a (..., k, d_out, d_in) Kraus stack."""
    total = (dagger(ops) @ ops).sum(axis=-3)
    return float(np.abs(total - np.eye(ops.shape[-1])).max())


def _check_range(p, lo: float, hi: float, message: str) -> None:
    """Raise ``ValueError(message.format(bad))`` for the first entry ``bad``
    of ``p`` (a number or an array) outside [lo, hi], NaN included."""
    inside = (lo <= p) & (p <= hi)
    if inside is not True and not np.all(inside):
        raise ValueError(message.format(np.asarray(p)[~np.asarray(inside)].flat[0]))


def _check_dimension(d) -> None:
    """Refuse a system dimension ``d`` that is not an integer of at least 2."""
    if not (isinstance(d, numbers.Integral) and d >= 2):
        raise ValueError(f"dimension d={d} must be an integer of at least 2")


def _zoo_channel(weights: list, ops: np.ndarray) -> KrausChannel:
    """The channel whose Kraus operators are ``weights[j] * ops[j]``, the
    weights all numbers or all 1-D arrays of one length; arrays give one
    channel per entry, as a grid."""
    return _derived(KrausChannel, np.array(weights).T[..., None, None] * ops)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A linear map given by Kraus operators, each ``d_out x d_in``.

    ``kraus_ops`` is one read-only ``(k, d_out, d_in)`` complex array, built
    from any sequence of equal-shape matrices; it is the stack to iterate,
    index or take the ``len`` of, as the channel itself is not iterable.
    ``d_in`` and ``d_out`` are read off its shape.

    A channel is complete (trace preserving) by construction: the
    constructor refuses entries that are not finite, then a completeness
    residual above ``Tolerances.completeness``, both with
    :class:`ChannelCompletenessError`.  Channels the package derives from
    checked channels, or writes down complete by formula, skip that check.
    """

    kraus_ops: np.ndarray

    def __post_init__(self):
        ops = self.kraus_ops
        if not isinstance(ops, np.ndarray):
            ops = [np.asarray(K) for K in ops]
            if len({K.shape for K in ops}) > 1:
                raise DimensionMismatchError("all Kraus operators must share one shape")
        ops = np.array(ops, dtype=complex)
        if not len(ops):
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.ndim != 3:
            raise DimensionMismatchError(f"Kraus stack must be (k, d_out, d_in), got {ops.shape}")
        # Finiteness first: a NaN residual would pass any bound.
        if not np.isfinite(ops).all():
            raise ChannelCompletenessError("Kraus operators have entries that are not finite")
        res, tol = _completeness_residual(ops), DEFAULT_TOL.completeness
        if res > tol:
            raise ChannelCompletenessError(f"Kraus completeness residual {res:.3e} exceeds {tol:g}")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def d_out(self) -> int:
        return self.kraus_ops.shape[-2]

    @property
    def d_in(self) -> int:
        return self.kraus_ops.shape[-1]

    def completeness_residual(self) -> float:
        return _completeness_residual(self.kraus_ops)


@dataclass(frozen=True, eq=False)
class ChoiState:
    """Choi state of a channel: (1/d_in) sum_ij |i><j| (x) N(|i><j|).

    The reference copy is the first tensor factor; tracing out the output
    factor of a trace-preserving channel leaves I/d_in.  ``choi_of_channel``
    skips this check: its marginal is off I/d_in by the residual / d_in.
    """

    matrix: np.ndarray
    d_in: int
    d_out: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.d_in * self.d_out
        if mat.shape != (d, d):
            raise DimensionMismatchError(f"Choi matrix shape {mat.shape} != {(d, d)}")
        assert_psd(mat, DEFAULT_TOL.psd, "Choi state")
        marginal = partial_trace(mat, [self.d_in, self.d_out], keep=0)
        if np.abs(marginal - np.eye(self.d_in) / self.d_in).max() > DEFAULT_TOL.psd:
            raise StateValidationError("Choi marginal differs from I/d_in: channel not TP")
        object.__setattr__(self, "matrix", _readonly(mat))


# ---------------------------------------------------------------------------
# Channel actions
# ---------------------------------------------------------------------------

def _pair_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every product L_i R_j of the Kraus stacks ``left`` (..., k_L, a, b)
    and ``right`` (..., k_R, b, c), as a (..., k_L, k_R, a, c) array.

    Each R_j is the right factor of one product with every L_i stacked
    above it, a (k_L a, b) matrix, and with every grid entry of ``left``
    too when ``right`` has no grid axis.  An entry of L_i R_j sums the same
    b terms in the same order as ``L_i @ R_j`` alone, so it has its bits."""
    *lead_l, k_l, a, b = left.shape
    *lead_r, k_r, _, c = right.shape
    if lead_r:  # (..., 1, k_L a, b) @ (..., k_R, b, c): one product per grid entry and R_j
        prod = left.reshape(*lead_l, 1, k_l * a, b) @ right
        return prod.reshape(*prod.shape[:-3], k_r, k_l, a, c).swapaxes(-4, -3)
    prod = left.reshape(1, -1, b) @ right  # (1, N k_L a, b) @ (k_R, b, c): one product per R_j
    return prod.reshape(k_r, -1, a, c).swapaxes(0, 1).reshape(*lead_l, k_l, k_r, a, c)


# Most bytes of K_i M, or of (K_i M) K_i^dag, products that ``apply_kraus``
# forms at once: below glibc's default 128 KiB threshold, above which freed
# memory goes back to the system, so a sweep block's products reuse freed
# memory.  Formed all at once, fig2's 101-point block took 82 fresh page
# faults a call, and every K_i M of figs1's 100-point switch block, 921 KB,
# about 229 a pass.
_APPLY_CHUNK_BYTES = 1 << 16


def apply_kraus(kraus_ops, matrix: np.ndarray) -> np.ndarray:
    """Raw Kraus action sum_i K_i M K_i^dag on one matrix M.

    ``kraus_ops`` is one Kraus stack or a grid of them (leading axes), and
    M maps through each, entry by entry.  The grid entries are taken a chunk
    at a time, at most ``_APPLY_CHUNK_BYTES`` of products each.  Every K_i M
    of a chunk is one ``(chunk k d, d) @ (d, d)`` product, each entry summing
    the same d terms in the same order as ``K_i @ M`` alone.  Each (K_i M)
    K_i^dag is then its own product, and each entry's sum runs over its
    operators in order."""
    ops, matrix = np.asarray(kraus_ops, dtype=complex), np.asarray(matrix)
    if matrix.ndim != 2:
        raise DimensionMismatchError(f"apply_kraus maps one matrix, got shape {matrix.shape}")
    *lead, k, d_out, d_in = ops.shape
    ops = ops.reshape(-1, k, d_out, d_in)
    out = np.empty((len(ops), d_out, d_out), dtype=complex)
    step = max(1, _APPLY_CHUNK_BYTES // (ops.itemsize * k * d_out * d_in))
    for lo in range(0, len(ops), step):
        chunk = ops[lo : lo + step]
        left = (chunk.reshape(-1, d_in) @ matrix).reshape(chunk.shape)
        out[lo : lo + step] = (left @ dagger(chunk)).sum(axis=-3)
    return out.reshape(*lead, d_out, d_out)


def apply_channel(ch: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Apply a channel to a state: sum K rho K^dag, positive for any Kraus operators."""
    if rho.dim != ch.d_in:
        raise DimensionMismatchError(f"state dim {rho.dim} != channel input dim {ch.d_in}")
    return _derived(DensityOperator, apply_kraus(ch.kraus_ops, rho.matrix))


def choi_of_channel(ch: KrausChannel) -> ChoiState:
    """Choi state of a channel, which is complete by construction (one per
    entry of a grid of channels)."""
    *lead, k, d_out, d_in = ch.kraus_ops.shape
    # |v_K> = sum_i |i> (x) K|i>, the transposed K read row by row, so
    # J = (1/d_in) sum_K |v_K><v_K|, a Gram sum: positive and exactly
    # Hermitian, with a marginal off I/d_in by the residual / d_in.
    vecs = ch.kraus_ops.swapaxes(-1, -2).reshape(*lead, k, d_in * d_out)
    J = (vecs[..., :, None] * vecs.conj()[..., None, :]).sum(axis=-3)
    return _derived(ChoiState, J / d_in, d_in=d_in, d_out=d_out)


def compose_channels(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Channel composition outer after inner (Kraus products O_i I_j),
    complete whenever both factors are, so built without a check.  Grid
    axes broadcast: a grid composed with one channel is a grid."""
    if inner.d_out != outer.d_in:
        raise DimensionMismatchError(
            f"cannot compose: inner output dim {inner.d_out} != outer input dim {outer.d_in}"
        )
    ops = _pair_products(outer.kraus_ops, inner.kraus_ops)
    return _derived(KrausChannel, ops.reshape(*ops.shape[:-4], -1, outer.d_out, inner.d_in))


def measure_control(state: DensityOperator, outcome: str) -> tuple[DensityOperator, float]:
    """Project the control qubit, the first tensor factor, onto |+> or |->
    and return the target branch.

    ``outcome`` is "plus" or "minus".  Returns the unnormalized conditional
    state <pm|state|pm> on the target and its trace; the probabilities of
    both outcomes sum to the input trace.  The compression sums the four
    (d, d) blocks X_ab of the state from zero, in the order (0, 0), (0, 1),
    (1, 0), (1, 1), each scaled as (c_a* X_ab) c_b.  The amplitudes are c_0
    = 1/sqrt(2) and c_1 = +-c_0, so every block takes the same two real
    products and the sign of c_1 picks adding or subtracting the
    off-diagonal blocks.  All of it is elementwise, so a grid entry gets the
    bits of a lone call.  The branch is its exactly Hermitian part,
    whose rounding would otherwise be magnified when a branch of tiny
    probability is renormalized.  A grid of states gives a grid of branches
    and an array of probabilities.
    """
    if outcome not in ("plus", "minus"):
        raise ValueError(f"outcome must be 'plus' or 'minus', got {outcome!r}")
    if state.dim % 2 != 0:
        raise DimensionMismatchError(f"state dim {state.dim} does not factor over a qubit control")
    d_target = state.dim // 2
    c = 1 / np.sqrt(2)
    x = state.matrix.reshape(*state.matrix.shape[:-2], 2, d_target, 2, d_target) * c * c  # each (c X_ab) c
    cross = np.add if outcome == "plus" else np.subtract  # the sign of c_0* c_1 and of c_1* c_0
    branch = cross(cross(0.0 + x[..., 0, :, 0, :], x[..., 0, :, 1, :]), x[..., 1, :, 0, :]) + x[..., 1, :, 1, :]
    branch = 0.5 * (branch + dagger(branch))
    return _derived(DensityOperator, branch), _real_trace(branch)  # a compression of a positive state


# ---------------------------------------------------------------------------
# Channel zoo
# ---------------------------------------------------------------------------

def unitary_channel(U) -> KrausChannel:
    return KrausChannel((np.asarray(U, dtype=complex),))


def identity_channel(d: int) -> KrausChannel:
    return unitary_channel(np.eye(d, dtype=complex))


def orthogonal_unitary_basis(d: int) -> list[np.ndarray]:
    """A basis of d**2 unitaries orthogonal under the trace inner product.

    Pauli strings for d = 2; boost/shift products for odd prime d.
    """
    if d == 2:
        return [op for _, op in pauli_strings(1)]
    try:
        return [op for _, op in heisenberg_weyl_operators(d)]
    except ValueError:
        raise DimensionMismatchError(f"no orthogonal unitary basis implemented for d={d}") from None


@lru_cache(maxsize=None)
def _depolarizing_ops(d: int) -> np.ndarray:
    """The identity, then the non-identity unitaries of the orthogonal basis."""
    return _readonly([np.eye(d), *orthogonal_unitary_basis(d)[1:]])


def depolarizing_channel(d: int, p: float) -> KrausChannel:
    """Mix a state with the maximally mixed state: rho -> p I/d + (1-p) rho.

    Valid for p in [0, d^2/(d^2-1)]; the upper part of that range (p > 1)
    still defines a completely positive map and is what the minus branch of
    the switched depolarizing noise produces.  An array of strengths gives
    one channel per entry, as a grid.
    """
    _check_dimension(d)
    p_max = d * d / (d * d - 1)
    _check_range(p, 0.0, p_max + DEFAULT_TOL.depolarizing_range,
                 "depolarizing strength p={} outside [0, %.6f]" % p_max)
    # rho -> a rho + (p/d^2) sum_{non-identity U} U rho U^dag with
    # a = 1 - p (d^2-1)/d^2 >= 0 over the whole valid range.
    a = np.maximum(0.0, 1.0 - p * (d * d - 1) / (d * d))
    return _zoo_channel([np.sqrt(a)] + [np.sqrt(p) / d] * (d * d - 1), _depolarizing_ops(d))


@lru_cache(maxsize=None)
def _noisy_th_ops() -> np.ndarray:
    """The two reset rows, then T H."""
    return _readonly([[[1, 1], [0, 0]], [[0, 0], [-1, 1]], T_GATE @ HADAMARD])


def noisy_th_channel(p: float) -> KrausChannel:
    """Qubit channel mixing a Fourier-basis reset with the combined T H gate.

    With weight ``p`` the input is measured in the |+>/|-> basis and the
    outcome is written into the computational basis; with weight ``1 - p``
    the unitary T H is applied.  Complete for every p in [0, 1].  An array
    of noise values gives one channel per entry, as a grid.
    """
    _check_range(p, 0.0, 1.0, "p={} outside [0, 1]")
    return _zoo_channel([np.sqrt(p / 2), np.sqrt(p / 2), np.sqrt(1 - p)], _noisy_th_ops())


@lru_cache(maxsize=None)
def _qutrit_noisy_th_ops() -> np.ndarray:
    """The three reset rows, then the qutrit T H."""
    omega = np.exp(2j * np.pi / 3)
    return _readonly([
        [[1, 1, 1], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [1, omega, omega**2], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [1, omega**2, omega]],
        qutrit_t_gate() @ fourier_gate(3),
    ])


def qutrit_noisy_th_channel(p: float) -> KrausChannel:
    """Qutrit analog of :func:`noisy_th_channel`.

    Weight ``p`` measures in the Fourier basis and records the outcome in the
    computational basis (three rank-1 Kraus rows, each aligned with the row
    it writes, so the set is complete for every p in [0, 1]); weight
    ``1 - p`` applies the qutrit T H unitary.  An array of noise values
    gives one channel per entry, as a grid.
    """
    _check_range(p, 0.0, 1.0, "p={} outside [0, 1]")
    zeta = np.exp(2j * np.pi / 9)
    sq = np.sqrt(p / 3)
    return _zoo_channel([sq * zeta, sq, sq * zeta, np.sqrt(1 - p)], _qutrit_noisy_th_ops())


def qutrit_k2_variant_report(p: float = 0.5) -> dict:
    """Completeness residuals at noise level ``p`` of the paper's qutrit set
    ("aligned", :func:`qutrit_noisy_th_channel`) and of a "cross" set whose
    third reset row is misaligned: its last two entries land in row 1
    instead of row 2, which breaks completeness by O(p) for every p > 0.
    "aligned" is exact and is the set every computation in this package uses.
    The cross set is no channel, so its residual is read off the raw stack.
    """
    aligned = qutrit_noisy_th_channel(p)
    k0, k1, k2, k3 = aligned.kraus_ops
    k2_cross = np.zeros_like(k2)
    k2_cross[1, 1:], k2_cross[2, 0] = k2[2, 1:], k2[2, 0]
    cross = np.stack((k0, k1, k2_cross, k3))
    report = {"aligned": aligned.completeness_residual(), "cross": _completeness_residual(cross)}
    report["selected"] = "aligned"
    logger.info(
        "qutrit reset-row check at p=%g: aligned residual %.3e, cross residual %.3e",
        p,
        report["aligned"],
        report["cross"],
    )
    return report
