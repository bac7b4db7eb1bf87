"""Coherent-order composition of two channels with a control qubit.

A control qubit decides the traversal order of two inner channels; keeping
it coherent puts the target in a superposition of both orders.  This module
builds the composite Kraus operators for arbitrary inner channels, extracts
the conditional branches after a Fourier-basis control measurement, and
provides the closed form those branches take when both inner channels are
depolarizing.

The control qubit is always the first tensor factor.  Each function maps
a grid of channels (a leading axis on their Kraus stacks) or an array of
noise values entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import (
    DensityOperator,
    KrausChannel,
    _check_dimension,
    _check_range,
    _derived,
    _pair_products,
    apply_channel,
    compose_channels,
    depolarizing_channel,
    measure_control,
    plus_density,
    unitary_channel,
)
from .gates import T_GATE
from .linalg import DimensionMismatchError, tensor

def build_switch(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Construct the switched channel, on control (x) target, of two
    equal-dimension complete channels.

    The Kraus set |0><0|_c (x) E_i F_j + |1><1|_c (x) F_j E_i is the block
    diagonal of E_i F_j and F_j E_i, for every pair (i, j) at once (the
    switch of (b, a) is the same channel, its operators in another order).
    Every E_i F_j is formed as one product per F_j of the stacked E, and
    every F_j E_i as one per E_i of the stacked F (``_pair_products``),
    each with the bits of its own product.  The switch is complete whenever
    its factors are, sum (E F)^dag (E F) = sum F^dag (sum E^dag E) F, so it
    is built without a check.
    """
    if a.d_in != a.d_out or b.d_in != b.d_out:
        raise DimensionMismatchError("switch requires square inner channels")
    if a.d_in != b.d_in:
        raise DimensionMismatchError(
            f"inner channels act on different dimensions {a.d_in} != {b.d_in}"
        )
    d = a.d_in
    EF = _pair_products(a.kraus_ops, b.kraus_ops)  # [..., i, j] = E_i F_j
    # A channel switched with itself has F_j E_i = E_j E_i, its EF products
    # with i and j swapped.
    FE = EF if a is b else _pair_products(b.kraus_ops, a.kraus_ops)  # [..., j, i] = F_j E_i
    *lead, k_a, k_b = EF.shape[:-2]
    ops = np.zeros((*lead, k_a, k_b, 2 * d, 2 * d), dtype=complex)
    ops[..., :d, :d] = EF  # E_i F_j
    ops[..., d:, d:] = FE.swapaxes(-4, -3)  # F_j E_i
    return _derived(KrausChannel, ops.reshape(*lead, k_a * k_b, 2 * d, 2 * d))


@lru_cache(maxsize=16)
def _joint_input(target_in: DensityOperator) -> DensityOperator:
    """|+><+|_c (x) target, a product of checked states, so not checked
    again.  States compare by identity, so a sweep that feeds every row the
    shared ``plus_density`` target forms it once."""
    return _derived(DensityOperator, tensor(plus_density(2).matrix, target_in.matrix))


def conditional_outputs(
    switch: KrausChannel, target_in: DensityOperator
) -> tuple[DensityOperator, DensityOperator, float, float]:
    """Run ``switch``, a channel from ``build_switch``, on a |+> control and
    ``target_in``, and measure the control in the |+>/|-> basis.

    Returns (rho_plus, rho_minus, prob_plus, prob_minus); the branch states
    are unnormalized and carry the outcome probabilities as their traces,
    which sum to the input trace.  A grid of switches gives grids of
    branches and arrays of probabilities.
    """
    if target_in.dim != switch.d_in // 2:
        raise DimensionMismatchError(
            f"target dim {target_in.dim} != switch target dim {switch.d_in // 2}"
        )
    out = apply_channel(switch, _joint_input(target_in))
    rho_plus, prob_plus = measure_control(out, "plus")
    rho_minus, prob_minus = measure_control(out, "minus")
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
        _check_dimension(d)
        _check_range(p, 0.0, 1.0, "noise strength p={} outside [0, 1]")
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


@lru_cache(maxsize=None)
def _t_channel() -> KrausChannel:
    return unitary_channel(T_GATE)


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
    on p, only its weight does.  For an array of p, the plus channel and both
    weights are grids, and the minus channel stays one channel.
    """
    eff = EffectiveDepolarizingSwitch.from_noise(2, p)
    plus = compose_channels(depolarizing_channel(2, eff.p_plus), _t_channel())
    minus = compose_channels(depolarizing_channel(2, eff.p_minus), _t_channel())
    return (
        WeightedChannel(weight=eff.weight_plus, channel=plus),
        WeightedChannel(weight=eff.weight_minus, channel=minus),
    )
