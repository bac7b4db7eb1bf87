"""Numerical tolerance defaults, centralized so every module agrees."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Absolute tolerances used across the package.

    Dimensions stay below ~100, so double precision leaves several digits
    of headroom over every threshold here.
    """

    eq: float = 1e-10            # operator equality / hermiticity
    psd: float = 1e-9            # eigenvalue floor for positivity checks
    completeness: float = 1e-9   # Kraus completeness residual
    pivot: float = 1e-9          # simplex pivot, ratio-test and primal feasibility tolerance
    lp_residual: float = 1e-7    # LP reconstruction residual
    lp_value: float = 1e-6       # "value equals 1" threshold for robustness
    mana_zero: float = 1e-9      # mana within this of zero counts as zero
    probability: float = 1e-9    # slack of the branch probability and weight checks
    degenerate_prob: float = 1e-9  # a branch this unlikely has no conditional state
    grid: float = 1e-9           # slack in counting the points of a sweep grid
    rhs_fit: float = 1e-10       # relative misfit that rejects a polynomial LP right-hand side
    frame: float = 1e-12         # phase-point frame checks: Hermitian, unit trace, resolution of I
    wigner_imag: float = 1e-12   # imaginary part a Wigner value may carry from rounding
    depolarizing_range: float = 1e-12  # slack above the largest valid depolarizing strength
    # Rounding floor under lp_tol: 16 ulps of the robustness floor 1.  Free
    # LPs of the default fig2/fig3 grids land up to 7 ulps off 1, and must
    # still read free at lp_tol = 0.  Not user-settable; it only acts when
    # lp_tol is below it.
    rounding: float = 16 * 2.0**-52


DEFAULT_TOL = Tolerances()
