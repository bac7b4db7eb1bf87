"""Thresholds checked in exact arithmetic.

An element a + b sqrt(2) of Q(sqrt(2)) is the pair ``(a, b)`` of
``Fraction``s.  The channel program's matrix A has entries 0, +-1/2 and +-1
only, so each float entry converts to a ``Fraction`` exactly, and at an
optimal basis y = c_B B^-1 is exact over the rationals.
"""

import math
from fractions import Fraction

import numpy as np

from magicswitch import channel_robustness
from magicswitch.experiments import sequential_t_channel
from magicswitch.gates import PAULI_X, PAULI_Y, PAULI_Z

from conftest import LP_THRESHOLDS, channel_program

ZERO = (Fraction(0), Fraction(0))


def q2(a, b=0):
    """a + b sqrt(2), from rationals."""
    return Fraction(a), Fraction(b)


def add(x, y):
    return x[0] + y[0], x[1] + y[1]


def mul(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def nonnegative(x):
    """Whether a + b sqrt(2) >= 0, decided on rationals alone."""
    a, b = x
    if a >= 0 and b >= 0:
        return True
    if a <= 0 and b <= 0:
        return a == b == 0
    return a * a >= 2 * b * b if a > 0 else 2 * b * b >= a * a


def to_float(x):
    return float(x[0]) + float(x[1]) * math.sqrt(2)


def dot(rationals, vector):
    """sum_i r_i v_i, for rationals r and elements v of Q(sqrt(2))."""
    total = ZERO
    for r, v in zip(rationals, vector):
        total = add(total, mul(q2(r), v))
    return total


def inverse(matrix):
    """The exact inverse of a square rational matrix, by Gauss-Jordan."""
    n = len(matrix)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


# The 16 two-qubit Pauli strings in the package's order (I, X, Y, Z,
# lexicographic); the channel program keeps all of them but X, Y, Z (x) I,
# then holds six marginal rows at 0.
PAULIS_1Q = (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z)
PAULIS_2Q = [np.kron(a, b) for a in PAULIS_1Q for b in PAULIS_1Q]
KEPT = [k for k in range(16) if k not in (4, 8, 12)]


def program_rhs(components):
    """The channel program's right-hand side from 16 Pauli components."""
    return [components[k] for k in KEPT] + [ZERO] * 6


def t_gate_rhs():
    """b_T, the Pauli vector of the T gate's Choi state J_T = |v><v| / 2,
    with v = |00> + w |11> and w = e^{i pi/4} = (1 + i) / sqrt(2).

    Each component is tr(P J_T) / 2 = <v|P|v> / 4 = (P_00 + P_33) / 4 +
    Re(w P_03) / 2, and for P_03 = u + i t (u, t in {0, +-1}), Re(w P_03)
    = (u - t) / sqrt(2), so the component is (P_00 + P_33) / 4 + (u - t)
    sqrt(2) / 4: II and ZZ give 1/2, XX, XY and YX sqrt(2)/4, YY -sqrt(2)/4."""
    components = []
    for P in PAULIS_2Q:
        u, t = int(P[0, 3].real), int(P[0, 3].imag)
        components.append(q2(Fraction(int((P[0, 0] + P[3, 3]).real), 4), Fraction(u - t, 4)))
    return program_rhs(components)


def mixed_rhs():
    """b_I, the Pauli vector of I/4: tr(P I/4) / 2, which is 1/2 on II."""
    return program_rhs([q2(Fraction(1, 2))] + [ZERO] * 15)


def depolarized_rhs(q):
    """b(q) = (1 - q) b_T + q b_I, the right-hand side of the T gate behind
    depolarizing noise of total strength q, an element of Q(sqrt(2))."""
    one_minus = add(q2(1), mul(q2(-1), q))
    return [add(mul(one_minus, t), mul(q, i)) for t, i in zip(t_gate_rhs(), mixed_rhs())]


def test_fig3_sequential_threshold_is_certified_exactly(choi_atoms):
    """fig3_sequential: two depolarizing passes of strength p are one of
    strength q = 2p - p^2.  On the optimal basis the package returns at p
    = 1/4, the value is y.b(q) = sqrt(2) (1 - q) + q/2, which reaches 1 at
    q* = (6 - 2 sqrt(2))/7; the basis is still optimal there, so p* = 1 -
    sqrt(1 - q*) = 1 - sqrt(7 + 14 sqrt(2))/7."""
    A_float, _ = channel_program(choi_atoms)
    assert set(np.unique(A_float).tolist()) <= {-1.0, -0.5, 0.0, 0.5, 1.0}
    A = [[Fraction(v) for v in row] for row in A_float.tolist()]
    m, n = len(A), len(A[0])

    solution = channel_robustness(sequential_t_channel(0.25), choi_atoms)
    # The exact right-hand side is the package's at q = 2p - p^2 = 7/16.
    want = [to_float(v) for v in depolarized_rhs(q2(Fraction(7, 16)))]
    assert np.abs(solution.standard_form[1] - want).max() <= 1e-15
    basis = solution.warm_start.basis.tolist()
    assert len(basis) == m and max(basis) < n  # no artificial
    B_inv = inverse([[A[i][j] for j in basis] for i in range(m)])
    y = [sum(B_inv[k][i] for k in range(m)) for i in range(m)]  # c_B B^-1 at unit costs

    assert dot(y, t_gate_rhs()) == q2(0, 1)  # sqrt(2)
    assert dot(y, mixed_rhs()) == q2(Fraction(1, 2))
    q_star = q2(Fraction(6, 7), Fraction(-2, 7))
    one_minus = add(q2(1), mul(q2(-1), q_star))
    value = add(mul(q2(0, 1), one_minus), mul(q2(Fraction(1, 2)), q_star))
    assert value == q2(1)

    # The basis is optimal at q*: x_B = B^-1 b(q*) >= 0, degenerate there,
    # and every reduced cost c_j - y.A_j >= 0.
    b_star = depolarized_rhs(q_star)
    x_B = [dot(row, b_star) for row in B_inv]
    assert all(nonnegative(x) for x in x_B) and ZERO in x_B
    assert all(1 - sum(y[i] * A[i][j] for i in range(m)) >= 0 for j in range(n))

    assert one_minus == q2(Fraction(7, 49), Fraction(14, 49))
    assert abs(LP_THRESHOLDS["fig3_sequential"] - (1 - math.sqrt(to_float(one_minus)))) <= 1e-15
