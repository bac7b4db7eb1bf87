"""Discrete phase space for odd prime dimensions.

Builds the boost/shift displacement operators and the phase-point operator
frame, and evaluates Wigner functions and mana for states and channels.
These are the non-stabilizerness monotones used in odd dimension, where the
free states are exactly those with a nonnegative Wigner function.

Mana is reported with log base 2; only its zero set matters for any
threshold in this package, so the base is a pure convention.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import ChoiState, DensityOperator, KrausChannel, choi_of_channel
from .config import DEFAULT_TOL
from .linalg import DimensionMismatchError, dagger

logger = logging.getLogger(__name__)


def _require_odd_prime(d: int) -> None:
    if d < 3 or d % 2 == 0:
        raise ValueError(f"dimension d={d} must be an odd prime")
    if any(d % k == 0 for k in range(2, int(d**0.5) + 1)):
        raise ValueError(f"dimension d={d} must be prime")


@lru_cache(maxsize=None)
def heisenberg_weyl_operators(d: int) -> tuple:
    """Displacement operators T_u = tau^(-a1 a2) Z^a1 X^a2 over Z_d x Z_d.

    Returned as ((a1, a2), operator) pairs in row-major point order.
    """
    _require_odd_prime(d)
    omega = np.exp(2j * np.pi / d)
    tau = np.exp(1j * np.pi * (d + 1) / d)
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    boost = np.diag([omega**j for j in range(d)]).astype(complex)
    out = []
    for a1 in range(d):
        for a2 in range(d):
            op = tau ** (-a1 * a2) * np.linalg.matrix_power(boost, a1) @ np.linalg.matrix_power(shift, a2)
            op.setflags(write=False)
            out.append(((a1, a2), op))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PhaseSpaceFrame:
    """Phase-point operator frame A_u for one odd-prime dimension.

    The frame satisfies, numerically at build time: each A_u Hermitian with
    unit trace, Tr[A_u A_v] = d delta(u, v), and sum_u A_u / d = I.
    """

    d: int
    points: tuple                 # ((a1, a2), ...) row-major
    heisenberg_weyl: np.ndarray   # (d^2, d, d)
    phase_points: np.ndarray      # (d^2, d, d)


@lru_cache(maxsize=None)
def build_frame(d: int) -> PhaseSpaceFrame:
    """Construct and verify the phase-point frame for odd prime ``d``."""
    _require_odd_prime(d)
    hw = heisenberg_weyl_operators(d)
    points = tuple(u for u, _ in hw)
    t_ops = np.stack([op for _, op in hw])
    a0 = t_ops.sum(axis=0) / d
    a_ops = np.stack([T @ a0 @ dagger(T) for T in t_ops])

    eye = np.eye(d)
    tol = DEFAULT_TOL.frame
    for k, A in enumerate(a_ops):
        if np.abs(A - A.conj().T).max() > tol:
            raise RuntimeError(f"A_{points[k]} not Hermitian")
        if abs(np.trace(A) - 1.0) > tol:
            raise RuntimeError(f"A_{points[k]} trace != 1")
    if np.abs(a_ops.sum(axis=0) / d - eye).max() > tol:
        raise RuntimeError("phase-point resolution of identity failed")
    gram = np.einsum("uij,vji->uv", a_ops, a_ops)
    if np.abs(gram - d * np.eye(d * d)).max() > DEFAULT_TOL.eq:
        raise RuntimeError("phase-point orthogonality failed")

    t_ops.setflags(write=False)
    a_ops.setflags(write=False)
    return PhaseSpaceFrame(d=d, points=points, heisenberg_weyl=t_ops, phase_points=a_ops)


def wigner_of_operator(op: np.ndarray, frame: PhaseSpaceFrame) -> np.ndarray:
    """Wigner coefficients W(u) = Tr[A_u op] / d of a Hermitian operator.

    Returned as a (d, d) real array indexed [a1, a2].
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (frame.d, frame.d):
        raise DimensionMismatchError(f"operator shape {op.shape} != frame dim {frame.d}")
    vals = np.einsum("uij,ji->u", frame.phase_points, op) / frame.d
    if np.abs(vals.imag).max() > DEFAULT_TOL.wigner_imag:
        raise ValueError("Wigner function has a non-real component; operator not Hermitian?")
    return vals.real.reshape(frame.d, frame.d)


def wigner_of_state(rho: DensityOperator, frame: PhaseSpaceFrame) -> np.ndarray:
    """Wigner function of a normalized state; values sum to 1."""
    if not rho.normalized:
        raise ValueError("wigner_of_state expects a normalized state")
    wig = wigner_of_operator(rho.matrix, frame)
    if abs(wig.sum() - 1.0) > DEFAULT_TOL.eq:
        raise RuntimeError(f"Wigner normalization drifted: sum = {wig.sum()!r}")
    return wig


def _clamp_mana(value: float) -> float:
    # Values inside the zero band are rounding residue of log2(1 + eps).
    return 0.0 if value < DEFAULT_TOL.mana_zero else float(value)


def mana_state(rho: DensityOperator, frame: PhaseSpaceFrame) -> float:
    """Mana of a state: log2 of the Wigner l1 norm, zero exactly on the
    nonnegative-Wigner set.  Unnormalized inputs are renormalized first."""
    if not rho.normalized:
        rho, factor = rho.renormalized()
        logger.info("mana_state renormalized input by factor %.12g", factor)
    wig = wigner_of_state(rho, frame)
    return _clamp_mana(np.log2(np.abs(wig).sum()))


def _choi_route_wigner(choi: ChoiState, frame: PhaseSpaceFrame) -> np.ndarray:
    """W(v|u) = Tr[(A_u^T (x) A_v) J] from the Choi state J of a channel on
    the frame's dimension.

    One contraction over J reshaped to its (in, out, in, out) indices.  The
    general form carries a factor d_in / d_out, which is 1 here: the 1/d_in
    of the stored Choi state cancels the 1/d_out of the direct formula.
    An imaginary part beyond rounding raises ValueError.
    """
    d = frame.d
    j4 = choi.matrix.reshape(d, d, d, d)
    wig = np.einsum("uji,vab,jbia->vu", frame.phase_points, frame.phase_points, j4)
    if np.abs(wig.imag).max() > DEFAULT_TOL.wigner_imag:
        raise ValueError("channel Wigner function has a non-real component")
    return wig.real


def wigner_of_channel(ch: KrausChannel, frame: PhaseSpaceFrame) -> np.ndarray:
    """Conditional Wigner function W(v|u) = Tr[A_v N(A_u)] / d of a channel
    on the frame's dimension d.

    Computed as one contraction of the channel's checked Choi state
    (``_choi_route_wigner``).  Returned as a (d^2, d^2) array W[v, u] in
    row-major point order, so each column sums to 1 for a trace-preserving
    channel.
    """
    if ch.d_in != frame.d or ch.d_out != frame.d:
        raise DimensionMismatchError(f"channel dims ({ch.d_in},{ch.d_out}) != frame dim {frame.d}")
    return _choi_route_wigner(choi_of_channel(ch), frame)


def mana_channel(ch: KrausChannel, frame: PhaseSpaceFrame) -> float:
    """Mana of a channel: log2 max_u sum_v |W(v|u)|; zero exactly when the
    channel preserves Wigner nonnegativity completely."""
    wig = wigner_of_channel(ch, frame)
    worst = np.abs(wig).sum(axis=0).max()
    return _clamp_mana(np.log2(worst))
