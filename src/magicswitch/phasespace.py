"""Discrete phase space for odd prime dimensions.

Builds the phase-point operator frame from the boost/shift displacement
operators (``gates.heisenberg_weyl_operators``), and evaluates Wigner
functions and mana for states and channels.  These are the
non-stabilizerness monotones used in odd dimension, where the free states
are exactly those with a nonnegative Wigner function.

Mana is reported with log base 2; only its zero set matters for any
threshold in this package, so the base is a pure convention.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import ChoiState, DensityOperator, KrausChannel, choi_of_channel, log_renormalized
from .config import DEFAULT_TOL
from .gates import heisenberg_weyl_operators
from .linalg import DimensionMismatchError, dagger

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class PhaseSpaceFrame:
    """Phase-point operator frame A_u for one odd-prime dimension.

    The frame satisfies, numerically at build time: each A_u Hermitian with
    unit trace, Tr[A_u A_v] = d delta(u, v), and sum_u A_u / d = I.
    """

    d: int
    phase_points: np.ndarray      # (d^2, d, d), A_(a1, a2) at row-major a1 d + a2


@lru_cache(maxsize=None)
def build_frame(d: int) -> PhaseSpaceFrame:
    """Construct and verify the phase-point frame for odd prime ``d``; any
    other ``d`` raises ``ValueError``."""
    t_ops = np.stack([op for _, op in heisenberg_weyl_operators(d)])
    a0 = t_ops.sum(axis=0) / d
    a_ops = np.stack([T @ a0 @ dagger(T) for T in t_ops])

    tol = DEFAULT_TOL.frame
    not_hermitian = np.abs(a_ops - dagger(a_ops)).max(axis=(1, 2)) > tol
    bad = not_hermitian | (np.abs(np.trace(a_ops, axis1=1, axis2=2) - 1.0) > tol)
    if bad.any():
        k = int(bad.argmax())
        raise RuntimeError(f"A_{divmod(k, d)} " + ("not Hermitian" if not_hermitian[k] else "trace != 1"))
    if np.abs(a_ops.sum(axis=0) / d - np.eye(d)).max() > tol:
        raise RuntimeError("phase-point resolution of identity failed")
    if np.abs(_gram(a_ops) - d * np.eye(d * d)).max() > DEFAULT_TOL.eq:
        raise RuntimeError("phase-point orthogonality failed")

    a_ops.setflags(write=False)
    return PhaseSpaceFrame(d=d, phase_points=a_ops)


def _gram(a_ops: np.ndarray) -> np.ndarray:
    """Tr[A_u A_v] over a stack of Hermitian operators, as one BLAS product:
    for Hermitian A_v the trace is the inner product of the flattened A_u
    with the conjugate of the flattened A_v."""
    flat = a_ops.reshape(len(a_ops), -1)
    return flat @ dagger(flat)


def check_frame_dim(target: np.ndarray | KrausChannel, d: int) -> None:
    """Refuse an operator (or a grid of them) or a channel that does not act
    on dimension ``d``, as a frame's Wigner functions do, without a frame."""
    if isinstance(target, KrausChannel):
        if target.d_in != d or target.d_out != d:
            raise DimensionMismatchError(f"channel dims ({target.d_in},{target.d_out}) != frame dim {d}")
    elif target.shape[-2:] != (d, d):
        raise DimensionMismatchError(f"operator shape {target.shape} != frame dim {d}")


def wigner_of_operator(op: np.ndarray, frame: PhaseSpaceFrame) -> np.ndarray:
    """Wigner coefficients W(u) = Tr[A_u op] / d of a Hermitian operator.

    One vector-matrix product per grid entry, of the flattened op^T with
    the transposed flattened frame, which numpy reads without a copy; a grid
    entry gets the bits of a lone call.  Returned as a (d, d) real array
    indexed [a1, a2], after any leading grid axes of ``op``.  An imaginary
    part beyond rounding raises ValueError.
    """
    op = np.asarray(op, dtype=complex)
    check_frame_dim(op, frame.d)
    d = frame.d
    flat_t = op.swapaxes(-1, -2).reshape(*op.shape[:-2], 1, d * d)  # op^T, a copy of the operator only
    vals = (flat_t @ frame.phase_points.reshape(d * d, d * d).T)[..., 0, :] / d
    if np.abs(vals.imag).max() > DEFAULT_TOL.wigner_imag:
        raise ValueError("Wigner function has a non-real component; operator not Hermitian?")
    return vals.real.reshape(*op.shape[:-2], d, d)


def wigner_of_state(rho: DensityOperator, frame: PhaseSpaceFrame) -> np.ndarray:
    """Wigner function of a normalized state, or of each entry of a grid;
    values sum to its trace, which is 1 within ``DEFAULT_TOL.psd``."""
    if not np.all(rho.normalized):
        raise ValueError("wigner_of_state expects a normalized state")
    wig = wigner_of_operator(rho.matrix, frame)
    sums = wig.sum(axis=(-2, -1))
    drift = np.abs(sums - rho.trace)
    if drift.max() > DEFAULT_TOL.eq:
        raise RuntimeError(f"Wigner normalization drifted: sum = {sums.flat[drift.argmax()]!r}")
    return wig


def mana_of_wigner(wig: np.ndarray, channel: bool = False):
    """Mana, log2 of a Wigner l1 norm, with values inside the zero band
    ``DEFAULT_TOL.mana_zero`` read as the rounding residue of log2(1 + eps).

    ``wig`` holds a state's W(u) in its last two axes, or with ``channel``
    a channel's W(v|u) as ``W[v, u]``, whose norm is the largest column sum
    max_u sum_v |W(v|u)|.  Leading grid axes give one mana per entry, a
    float for a single W."""
    l1 = np.abs(wig).sum(axis=-2).max(axis=-1) if channel else np.abs(wig).sum(axis=(-2, -1))
    value = np.log2(l1)
    value = np.where(value < DEFAULT_TOL.mana_zero, 0.0, value)
    return float(value) if value.ndim == 0 else value


def mana_state(rho: DensityOperator, frame: PhaseSpaceFrame):
    """Mana of a state: log2 of the Wigner l1 norm, zero exactly on the
    nonnegative-Wigner set.  Unnormalized inputs are renormalized first,
    with one INFO line per renormalized state; a grid of states gives one
    mana per entry."""
    rho, factor = rho.renormalized()
    log_renormalized(logger, "mana_state", factor)
    return mana_of_wigner(wigner_of_state(rho, frame))


def _choi_route_wigner(choi: ChoiState, frame: PhaseSpaceFrame) -> np.ndarray:
    """W(v|u) = Tr[(A_u^T (x) A_v) J] from the Choi state J of a channel on
    the frame's dimension, one per entry of a grid.

    Two matrix products per grid entry, O(d^6) where the contraction of
    both frames with J in one sum is O(d^8): the images M_u = N(A_u) / d =
    sum_ji A_u[j, i] J[j, :, i, :], one row of d^2 values per u, and then
    W[v, u] = Tr[A_v M_u].  Numpy runs each product entry by entry, so a
    grid entry gets the bits of a lone call.  The general form carries a
    factor d_in / d_out, which is 1 here: the 1/d_in of the stored Choi
    state cancels the 1/d_out of the direct formula.  An imaginary part
    beyond rounding raises ValueError.
    """
    d, lead = frame.d, choi.matrix.shape[:-2]
    points = frame.phase_points.reshape(d * d, d * d)  # [u, (j, i)]
    j4 = choi.matrix.reshape(*lead, d, d, d, d)  # [j, b, i, a]: input j, i and output b, a
    m = points @ j4.swapaxes(-3, -2).swapaxes(-2, -1).reshape(*lead, d * d, d * d)  # [u, (a, b)] = M_u[b, a]
    wig = points @ m.swapaxes(-1, -2)  # [v, u] = sum_ab A_v[a, b] M_u[b, a]
    if np.abs(wig.imag).max() > DEFAULT_TOL.wigner_imag:
        raise ValueError("channel Wigner function has a non-real component")
    return wig.real


def wigner_of_channel(ch: KrausChannel, frame: PhaseSpaceFrame) -> np.ndarray:
    """Conditional Wigner function W(v|u) = Tr[A_v N(A_u)] / d of a channel
    on the frame's dimension d.

    Computed from the channel's checked Choi state by two matrix products
    per grid entry (``_choi_route_wigner``), so an entry of a grid of
    channels has the bits of its lone call.  Returned as a (d^2, d^2) array
    W[v, u] in row-major point order, after any leading grid axes, so each
    column sums to 1 for a trace-preserving channel.
    """
    check_frame_dim(ch, frame.d)
    return _choi_route_wigner(choi_of_channel(ch), frame)


def mana_channel(ch: KrausChannel, frame: PhaseSpaceFrame):
    """Mana of a channel: log2 max_u sum_v |W(v|u)|; zero exactly when the
    channel preserves Wigner nonnegativity completely.  A grid of channels
    gives one mana per entry."""
    return mana_of_wigner(wigner_of_channel(ch, frame), channel=True)
