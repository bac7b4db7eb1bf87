"""Coherent-order composition of two channels with a control qubit.

A control qubit decides the traversal order of two inner channels; keeping
it coherent puts the target in a superposition of both orders.  This module
builds the composite Kraus operators for arbitrary inner channels, extracts
the conditional branches after a Fourier-basis control measurement, and
provides the closed form those branches take when both inner channels are
depolarizing.

The control qubit is always the first tensor factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (
    DensityOperator,
    KrausChannel,
    apply_kraus,
    compose_channels,
    depolarizing_channel,
    measure_control,
    plus_density,
    unitary_channel,
)
from .config import DEFAULT_TOL
from .gates import T_GATE
from .linalg import DimensionMismatchError, tensor

@dataclass(frozen=True, eq=False)
class SwitchedChannel:
    """The composite channel on control (x) target.

    Each Kraus operator pairs one operator from each inner channel:
    |0><0|_c branch applies them as a-after-b, |1><1|_c branch as b-after-a
    (so the switch of (b, a) is the same channel, its Kraus operators in
    another order).  ``channel`` is the composite ``KrausChannel``, checked
    once when the switch is built.
    """

    channel: KrausChannel
    dim: int

    @property
    def kraus(self) -> np.ndarray:
        """The composite (k_a k_b, 2 dim, 2 dim) Kraus stack."""
        return self.channel.kraus_ops


def build_switch(a: KrausChannel, b: KrausChannel) -> SwitchedChannel:
    """Construct the switched channel of two equal-dimension channels.

    Both inner channels must be complete; the composite Kraus set is built
    as |0><0|_c (x) E_i F_j + |1><1|_c (x) F_j E_i, that is the block
    diagonal of E_i F_j and F_j E_i for every pair (i, j) at once, and its
    completeness is verified before returning.
    """
    if a.d_in != a.d_out or b.d_in != b.d_out:
        raise DimensionMismatchError("switch requires square inner channels")
    if a.d_in != b.d_in:
        raise DimensionMismatchError(
            f"inner channels act on different dimensions {a.d_in} != {b.d_in}"
        )
    a.validate()
    b.validate()
    d = a.d_in
    E, F = a.kraus_ops[:, None], b.kraus_ops[None]
    ops = np.zeros((len(a.kraus_ops) * len(b.kraus_ops), 2 * d, 2 * d), dtype=complex)
    ops[:, :d, :d] = (E @ F).reshape(-1, d, d)  # E_i F_j
    ops[:, d:, d:] = (F @ E).reshape(-1, d, d)  # F_j E_i
    switched = SwitchedChannel(channel=KrausChannel(ops), dim=d)
    residual = switched.channel.completeness_residual()
    if residual > DEFAULT_TOL.completeness:
        raise RuntimeError(f"switched channel completeness residual {residual:.3e}")
    return switched


@lru_cache(maxsize=16)
def _joint_input(target_in: DensityOperator) -> np.ndarray:
    """|+><+|_c (x) target, read-only.  States compare by identity, so a
    sweep that feeds every row the shared ``plus_density`` target forms it
    once."""
    joint = tensor(plus_density(2).matrix, target_in.matrix)
    joint.flags.writeable = False
    return joint


def conditional_outputs(
    switched: SwitchedChannel, target_in: DensityOperator
) -> tuple[DensityOperator, DensityOperator, float, float]:
    """Run the switch on a |+> control and ``target_in``, and measure the
    control in the |+>/|-> basis.

    Returns (rho_plus, rho_minus, prob_plus, prob_minus); the branch states
    are unnormalized and carry the outcome probabilities as their traces,
    which sum to the input trace.
    """
    if target_in.dim != switched.dim:
        raise DimensionMismatchError(
            f"target dim {target_in.dim} != switch dim {switched.dim}"
        )
    out = apply_kraus(switched.kraus, _joint_input(target_in))
    out_state = DensityOperator(out, normalized=abs(np.trace(out).real - 1) <= DEFAULT_TOL.psd)
    rho_plus, prob_plus = measure_control(out_state, "plus")
    rho_minus, prob_minus = measure_control(out_state, "minus")
    return rho_plus, rho_minus, prob_plus, prob_minus


# ---------------------------------------------------------------------------
# Closed form for switched depolarizing noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveDepolarizingSwitch:
    """Effective description of switching two copies of depolarizing noise.

    Conditioned on the control outcome, the target sees plain depolarizing
    noise again: strength ``p_plus`` with probability ``weight_plus``, and
    the p-independent strength ``p_minus = d^2/(d^2-1)`` with probability
    ``weight_minus``.  The plus branch is strictly less noisy than two
    sequential passes: p_plus < 2p - p^2 for every p in (0, 1].

    ``p`` may be a float or an array of noise strengths; every field and
    method then holds the elementwise values.
    """

    d: int
    p: float
    p_plus: float
    p_minus: float
    weight_plus: float
    weight_minus: float

    @classmethod
    def from_noise(cls, d: int, p: float) -> "EffectiveDepolarizingSwitch":
        if d < 2:
            raise ValueError(f"dimension d={d} must be at least 2")
        if not np.all((0.0 <= p) & (p <= 1.0)):
            raise ValueError(f"noise strength p={p} outside [0, 1]")
        d2 = float(d * d)
        denom = 2 * d2 - (d2 - 1) * p * p
        return cls(
            d=d,
            p=p,
            p_plus=d2 * (4 * p - 3 * p * p) / denom,
            p_minus=d2 / (d2 - 1),
            weight_plus=denom / (2 * d2),
            weight_minus=(d2 - 1) * p * p / (2 * d2),
        )

    def sequential_strength(self) -> float:
        """Noise strength of two sequential passes, 2p - p^2."""
        return 2 * self.p - self.p * self.p

    def factored_identity_residual(self) -> float:
        """Residual of the algebraic identity behind the strict inequality:
        (2d^2-(d^2-1)p^2)(2p-p^2-p_plus) = p^2 (d^2-(d^2-1)p(2-p))."""
        d2 = float(self.d * self.d)
        p = self.p
        lhs = (2 * d2 - (d2 - 1) * p * p) * (self.sequential_strength() - self.p_plus)
        rhs = p * p * (d2 - (d2 - 1) * p * (2 - p))
        return abs(lhs - rhs)


@dataclass(frozen=True, eq=False)
class WeightedChannel:
    """A trace-preserving channel together with its branch probability."""

    weight: float
    channel: KrausChannel


def effective_t_channels(p: float) -> tuple[WeightedChannel, WeightedChannel]:
    """Effective maps seen by a T gate behind switched depolarizing noise.

    Each branch is the normalized channel D_{p_pm} after T, paired with its
    branch weight.  At p = 0 the plus branch is exactly the T gate and the
    minus branch has weight 0; the minus-branch channel itself never depends
    on p, only its weight does.
    """
    eff = EffectiveDepolarizingSwitch.from_noise(2, p)
    t_channel = unitary_channel(T_GATE)
    plus = compose_channels(depolarizing_channel(2, eff.p_plus), t_channel)
    minus = compose_channels(depolarizing_channel(2, eff.p_minus), t_channel)
    return (
        WeightedChannel(weight=eff.weight_plus, channel=plus),
        WeightedChannel(weight=eff.weight_minus, channel=minus),
    )
