"""Thresholds and printed cells checked in exact arithmetic.

An element a + b sqrt(2) of Q(sqrt(2)) is the pair ``(a, b)`` of
``Fraction``s.  The channel program's matrix A has entries 0, +-1/2 and +-1
only, so each float entry converts to a ``Fraction`` exactly, and at an
optimal basis y = c_B B^-1 is exact over the rationals.  fig2's switch
branches are exact over Q(sqrt(2))[i], and a printed cell is decided from
its exact value evaluated in ``decimal`` at 40 digits.
"""

import csv
import hashlib
import itertools
import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import numpy as np

from magicswitch import channel_robustness, cli, find_threshold, noisy_th_channel
from magicswitch.config import DEFAULT_TOL
from magicswitch.experiments import CHANNELS, default_config, sequential_t_channel
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


def p_plus(p):
    """The plus branch's depolarizing strength, 4 (4p - 3p^2) / (8 - 3p^2)."""
    return 4 * (4 * p - 3 * p * p) / (8 - 3 * p * p)


def test_fig3_switch_plus_threshold_is_certified_exactly(choi_atoms):
    """fig3_switch_plus: the plus branch is D_q o T at q = p_plus(p), the
    family of fig3_sequential, and is read off the basis that the test
    above certifies optimal at q* = (6 - 2 sqrt(2))/7 with value 1.  So the
    threshold is the root p* in (0, 1) of p_plus(p) = q*, that is of
    (12 - 3q*) p^2 - 16 p + 8 q*."""
    sequential = channel_robustness(sequential_t_channel(0.25), choi_atoms)
    plus = channel_robustness(CHANNELS["switch-plus-t"](0.25), choi_atoms)
    assert p_plus(Fraction(1, 4)) == Fraction(52, 125)
    want = [to_float(v) for v in depolarized_rhs(q2(Fraction(52, 125)))]
    assert np.abs(plus.standard_form[1] - want).max() <= 1e-15
    # That basis serves the plus branch up to the crossing, and another past it.
    for p in (0.05, 0.25, 0.27, 0.2779, 0.28):
        basis = channel_robustness(CHANNELS["switch-plus-t"](p), choi_atoms).warm_start.basis
        assert np.array_equal(basis, sequential.warm_start.basis) == (p < 0.28), p

    # q* (8 - 3p^2) - 4 (4p - 3p^2), coefficients of 1, p and p^2: one sign
    # change on [0, 1], between 0.27 and 0.28, so a single root there.
    q_star = q2(Fraction(6, 7), Fraction(-2, 7))
    c, b, a = quadratic = (mul(q2(8), q_star), q2(-16), add(q2(12), mul(q2(-3), q_star)))
    signs = [nonnegative(evaluate(quadratic, p)) for p in (0, Fraction(27, 100), Fraction(28, 100), 1)]
    assert signs == [True, True, False, False]
    # conftest's a p^2 + b p + c is (2 sqrt(2) - 1)/2 times it, so it has
    # the same root.
    scale = q2(Fraction(-1, 2), 1)
    assert [mul(scale, k) for k in quadratic] == [q2(-8, 8), q2(8, -16), q2(-3, 9)]
    discriminant = add(mul(b, b), mul(q2(-4), mul(a, c)))
    a, b, c = map(to_float, (a, b, c))
    root = 2 * c / (-b + math.sqrt(to_float(discriminant)))
    assert abs(a * root * root + b * root + c) <= 1e-14
    assert abs(LP_THRESHOLDS["fig3_switch_plus"] - root) <= 1e-15


# ---------------------------------------------------------------------------
# fig2's switch branches, exact over Q(sqrt(2))[i].  A complex element is the
# pair (re, im) of elements of Q(sqrt(2)); a 2 x 2 matrix is a list of rows.
# ---------------------------------------------------------------------------

def neg(x):
    return mul(q2(-1), x)


def c_add(x, y):
    return add(x[0], y[0]), add(x[1], y[1])


def c_mul(x, y):
    return add(mul(x[0], y[0]), neg(mul(x[1], y[1]))), add(mul(x[0], y[1]), mul(x[1], y[0]))


def c2(re, im=ZERO):
    return re, im


def m_add(X, Y):
    return [[c_add(x, y) for x, y in zip(rx, ry)] for rx, ry in zip(X, Y)]


def m_scale(s, X):
    """s X for an element s of Q(sqrt(2))."""
    return [[c_mul(c2(s), x) for x in row] for row in X]


def m_mul(X, Y):
    return [[c_add(c_mul(X[i][0], Y[0][j]), c_mul(X[i][1], Y[1][j])) for j in range(2)] for i in range(2)]


def dagger(X):
    return [[(X[j][i][0], neg(X[j][i][1])) for j in range(2)] for i in range(2)]


def real(entries):
    return [[c2(q2(v)) for v in row] for row in entries]


# The noisy TH channel's Kraus operators are sqrt(w_i) A_i, with weights w
# = (p/2, p/2, 1 - p), linear in p (constant term, p term): the two reset
# rows, then T H = [[1/sqrt(2), 1/sqrt(2)], [(1 + i)/2, -(1 + i)/2]].
NOISY_TH = (real([[1, 1], [0, 0]]), real([[0, 0], [-1, 1]]),
            [[c2(q2(0, Fraction(1, 2)))] * 2,
             [c2(q2(Fraction(1, 2)), q2(Fraction(1, 2))), c2(q2(Fraction(-1, 2)), q2(Fraction(-1, 2)))]])
NOISY_TH_WEIGHTS = ((0, Fraction(1, 2)), (0, Fraction(1, 2)), (1, -1))
PLUS_STATE = real([[Fraction(1, 2)] * 2] * 2)


def switch_branch(sign):
    """fig2's unnormalized switch branch, sum_ij w_i w_j N_ij rho N_ij^+ with
    N_ij = (A_i A_j + sign A_j A_i)/2 and rho = |+><+|: the matrices of 1, p
    and p^2, whose sum weighted by those powers is the branch at p."""
    powers = [real([[0, 0], [0, 0]]) for _ in range(3)]
    for (A_i, w_i), (A_j, w_j) in itertools.product(zip(NOISY_TH, NOISY_TH_WEIGHTS), repeat=2):
        N = m_scale(q2(Fraction(1, 2)), m_add(m_mul(A_i, A_j), m_scale(q2(sign), m_mul(A_j, A_i))))
        term = m_mul(m_mul(N, PLUS_STATE), dagger(N))
        for k, weight in enumerate((w_i[0] * w_j[0], w_i[0] * w_j[1] + w_i[1] * w_j[0], w_i[1] * w_j[1])):
            powers[k] = m_add(powers[k], m_scale(q2(weight), term))
    return powers


def trace_and_bloch(branch):
    """The trace and the Bloch components tr(sigma X), tr(sigma Y),
    tr(sigma Z) of a branch, each a polynomial in p over Q(sqrt(2)) (its
    coefficients of 1, p and p^2); a branch is Hermitian, so each is real."""
    columns = []
    for M in branch:
        (a, a_im), (b, b_im), (d, d_im) = M[0][0], M[0][1], M[1][1]
        assert a_im == d_im == ZERO and M[1][0] == (b, neg(b_im))
        columns.append((add(a, d), mul(q2(2), b), mul(q2(-2), b_im), add(a, neg(d))))
    return [tuple(column) for column in zip(*columns)]


def evaluate(poly, p):
    """A polynomial over Q(sqrt(2)) at a rational p, exactly."""
    return add(add(poly[0], mul(poly[1], q2(p))), mul(poly[2], q2(p * p)))


def robustness(branch, p):
    """max(1, ||r||_1) of the normalized branch at a rational p, as (a, b)
    with value (a + b sqrt(2)) / tr, and tr; None where the branch has trace
    0.  The qubit stabilizer polytope is the octahedron ||r||_1 <= 1 (Howard
    & Campbell, PRL 118, 090501 (2017))."""
    trace, *bloch = (evaluate(poly, p) for poly in trace_and_bloch(branch))
    if trace == ZERO:
        return None
    assert trace[1] == 0  # a rational trace
    norm = ZERO
    for r in bloch:
        norm = add(norm, r if nonnegative(r) else neg(r))
    return (norm if nonnegative(add(norm, neg(trace))) else trace), trace[0]


def test_fig2_switch_branches_and_rom_plus_threshold_are_exact():
    """fig2's plus branch has trace (p^2 - 2p + 4)/4 and Bloch components
    sqrt(2)(1 - p)/2 (X and Y) and p(2 - p)/4 (Z); the minus branch is
    p(2 - p)/4 |1><1|, a stabilizer state.  So rom_plus = max(1, (4 sqrt(2)
    (1 - p) + p(2 - p))/(p^2 - 2p + 4)) on [0, 1], which is 1 exactly from
    p* = 2 - sqrt(2) on: the root in [0, 1] of p^2 + (2 sqrt(2) - 2) p + 2
    - 2 sqrt(2)."""
    # The operators are the package's, at p = 1/4.
    ops = noisy_th_channel(0.25).kraus_ops
    for op, A, (w0, w1) in zip(ops, NOISY_TH, NOISY_TH_WEIGHTS):
        want = [[complex(to_float(x[0]), to_float(x[1])) for x in row] for row in A]
        assert np.abs(op - math.sqrt(w0 + w1 / 4) * np.array(want)).max() <= 1e-15

    half_root2 = q2(0, Fraction(1, 2))
    one_minus_p = (half_root2, neg(half_root2), ZERO)
    live = (ZERO, q2(Fraction(1, 2)), q2(Fraction(-1, 4)))  # p(2 - p)/4
    trace, x, y, z = trace_and_bloch(switch_branch(1))
    assert trace == (q2(1), q2(Fraction(-1, 2)), q2(Fraction(1, 4)))
    assert x == y == one_minus_p and z == live
    assert trace_and_bloch(switch_branch(-1)) == [live, (ZERO,) * 3, (ZERO,) * 3, tuple(map(neg, live))]

    # On [0, 1] no component is negative, and ||r||_1 - tr = -(p^2 + (2 sqrt(2)
    # - 2) p + 2 - 2 sqrt(2))/2.
    gap = [add(add(mul(q2(2), a), b), neg(t)) for a, b, t in zip(x, z, trace)]
    quadratic = (q2(2, -2), q2(-2, 2), q2(1))
    assert gap == [mul(q2(Fraction(-1, 2)), k) for k in quadratic]
    p_star = q2(2, -1)
    root = add(add(mul(p_star, p_star), mul(quadratic[1], p_star)), quadratic[0])
    assert root == ZERO and nonnegative(p_star) and nonnegative(add(q2(1), neg(p_star)))
    # The roots' product 2 - 2 sqrt(2) is negative, so the other root is
    # too: on [0, 1] the quadratic is negative, and rom_plus above 1, just
    # below p*.
    assert not nonnegative(quadratic[0])
    assert LP_THRESHOLDS["fig2_rom_plus"] == to_float(p_star)

    # A search crosses the level 1 + lp_tol, never below the rounding floor:
    # the value at its bracket's lower end is above that level, exactly, and
    # at the upper end not.  At lp_tol 0 the bracket holds p* itself; at the
    # default 1e-6 it sits about 8e-7 below.
    plus = switch_branch(1)
    for lp_tol, holds_p_star in ((0.0, True), (DEFAULT_TOL.lp_value, False)):
        lo, hi = find_threshold("fig2_rom_plus", 0.5, 0.7, lp_tol, threshold_tol=1e-9).bracket
        level = q2(1 + Fraction(max(lp_tol, DEFAULT_TOL.rounding)))
        for end, above in ((lo, True), (hi, False)):
            trace, x, y, z = (evaluate(poly, Fraction(end)) for poly in trace_and_bloch(plus))
            excess = add(add(add(x, y), z), neg(mul(level, trace)))
            assert (nonnegative(excess) and excess != ZERO) if above else nonnegative(neg(excess)), (lp_tol, end)
        inside = nonnegative(add(p_star, q2(-Fraction(lo)))) and nonnegative(add(q2(Fraction(hi)), neg(p_star)))
        assert inside == holds_p_star, (lp_tol, lo, hi)


def printed(value):
    """``%.12g`` of a positive value held to 40 digits, and whether it lies
    within 1e-25 of a rounding tie, where that format cannot be decided."""
    if value == 0:
        return "0", False
    quantum = Decimal(1).scaleb(value.adjusted() - 11)
    tail = (value / quantum) % 1
    return "%.12g" % float(value.quantize(quantum, rounding=ROUND_HALF_EVEN)), abs(tail - Decimal("0.5")) * quantum < Decimal("1e-25")


def test_default_fig2_probability_and_robustness_cells_are_exact(tmp_path):
    """Each prob_plus, prob_minus, rom_plus and rom_minus cell of the default
    fig2 CSV is %.12g of its exact value at the grid point's binary
    fraction, from the branches above, evaluated in ``decimal`` at 40
    digits.  rom_minus at p = 0, a branch of trace 0, is NaN."""
    from perfbench.workloads import EXPECTED_SHA256

    out = tmp_path / "fig2.csv"
    assert cli.main(["-q", "fig2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPECTED_SHA256["fig2"]
    with out.open(newline="") as f:
        rows = list(csv.DictReader(f))
    grid = default_config("fig2").grid()
    assert len(rows) == len(grid) == 101
    branches = {"plus": switch_branch(1), "minus": switch_branch(-1)}
    wrong, ties = [], []
    with localcontext() as context:
        context.prec = 40
        root2 = Decimal(2).sqrt()

        def decimal(x):
            return Decimal(x.numerator) / Decimal(x.denominator)

        for row, p in zip(rows, grid):
            assert row["p"] == "%.12g" % p
            exact = Fraction(p)
            for side, branch in branches.items():
                prob = evaluate(trace_and_bloch(branch)[0], exact)[0]
                rom = robustness(branch, exact)
                cells = {f"prob_{side}": decimal(prob)}
                if rom is None:
                    assert row[f"rom_{side}"] == "nan" and prob == 0
                else:
                    (a, b), trace = rom
                    cells[f"rom_{side}"] = (decimal(a) + decimal(b) * root2) / decimal(trace)
                for column, value in cells.items():
                    text, tie = printed(value)
                    if tie:
                        ties.append((row["p"], column, value))
                    elif text != row[column]:
                        wrong.append((row["p"], column, row[column], text))
    assert not ties, f"cells within 1e-25 of a rounding tie: {ties}"
    assert not wrong, f"cells off their exact value (p, column, printed, exact): {wrong}"
