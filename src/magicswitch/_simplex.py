"""Dense two-phase tableau simplex, started by dual simplex.

The embedded LP engine behind every robustness value.  Problems are small
(a few hundred columns, a few dozen rows), and each pivot is a handful of
whole-array numpy operations.  Every rule is deterministic, so is every
walk.  The Bland loops take the smallest eligible index, ties to the
smallest basic variable.  The dual repair leaves by dual steepest edge
(Forrest & Goldfarb, Math. Program. 57, 341 (1992)), whose weights
||e_r B^-1||^2 are exact in a dense tableau, which carries B^-1 in its
artificial columns; it falls back on the smallest basic index after a run
of dual-degenerate pivots, which steepest edge alone might repeat for ever.

Every optimal solve returns its basis with the inverse B^-1 read off its
final tableau, as one ``WarmStart``.  Reduced costs and y = c_B B^-1 do not
depend on ``b``, so an optimal basis stays optimal while it stays primal
feasible (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*,
1997, secs. 3.3 and 5.1).  ``Starts`` stacks bases of one program once;
``reuse_basis`` reads each right-hand side of a block, on its own, off the
first of them that serves it, x_B = B^-1 b, with no pivot.

``solve_standard_form`` solves an LP that must pivot by dual simplex (sec.
4.5), with no phase-1 walk, and always from one start: costs are
nonnegative, so the all-artificial basis, B = I, is dual feasible
(artificials cost 0 in the real objective, so y = 0 and each real reduced
cost is c_j), and ``dual_pivot_loop`` repairs ``[A | I | b]`` as it is.
That loop counts a basic artificial as fixed at 0, so it drives out every
artificial off 0, and then every one at 0 on a real entry of either sign
(Koberstein, *The dual simplex method*, PhD thesis, Paderborn, 2005); only
an exactly redundant row keeps one, and the package's programs have none.
Phase 1 and phase 2 follow, each Bland loop confirming the repaired
tableau; a status short of optimal, of the repair or of either loop, is
the solve's verdict.  ``optimal_start`` runs the repair alone, for a basis
kept only to serve reads of other right-hand sides.  Where an LP has
several optimal vertices, a solution read off a start and one solved may
differ in ``x``, not in value beyond rounding.  A repair judges
feasibility at ``Tolerances.primal``, far below the pivot tolerance: a
basic variable a pivot tolerance below 0 reads an infeasible vertex's
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2
STATUS_INFEASIBLE = 3

# Dual-degenerate pivots in a row (a dual step of at most the pivot
# tolerance) after which ``dual_pivot_loop`` leaves by the smallest basic
# index again, until a pivot moves the dual objective: Bland's rule cannot
# cycle, so no degenerate run lasts for ever.  The longest run measured,
# each repair from B = I, is 46: over the LPs of 150 random qubit
# channels, of the 51 channels (cos t I - i sin t X) T, of 46 channels of
# fig2 and fig3, and of 20 ``point_queries`` passes.
_DEGENERATE_RUN = 100


def _pivot(tableau, basis, r, q):
    """Pivot on entry (r, q) in place: scale row r to a unit pivot, clear
    column q from every other row with one rank-1 subtraction, and make q
    the basic variable of row r.  The subtraction skips row r and the rows
    whose column-q entry is zero, so every entry gets the same
    floating-point operations as a row-by-row elimination, bit for bit."""
    tableau[r] /= tableau[r, q]
    column = tableau[:, q]
    update = column != 0.0
    update[r] = False
    np.subtract(tableau, np.multiply.outer(column, tableau[r]), out=tableau, where=update[:, None])
    basis[r] = q


def bland_pivot_loop(tableau, basis, n_enterable, tol, max_iter):
    """Pivot to optimality under Bland's rule.

    tableau: (m+1, n_cols+1) float64, objective (reduced-cost) row last,
    rhs column last.  basis: (m,) int64.  Only columns < n_enterable may
    enter the basis.  Both are updated in place.  Returns (status,
    iterations), where the last iteration is the one that finds the
    optimum or the unbounded column.

    Each pivot is a few whole-array operations: the entering column is the
    first reduced cost below -tol, the leaving row the minimum ratio over
    the rows with a positive pivot-column entry (exact ties go to the
    smallest basic variable), and the update one ``_pivot``.
    """
    m = tableau.shape[0] - 1
    reduced = tableau[m, :n_enterable]
    rhs = tableau[:m, -1]
    it = 0
    while it < max_iter:
        it += 1
        entering = (reduced < -tol).nonzero()[0]
        if not entering.size:
            return STATUS_OPTIMAL, it
        q = entering[0]
        column = tableau[:, q]
        rows = (column[:m] > tol).nonzero()[0]
        if not rows.size:
            return STATUS_UNBOUNDED, it
        ratios = rhs[rows] / column[rows]
        k = ratios.argmin()
        ties = ratios == ratios[k]
        if np.count_nonzero(ties) > 1:
            rows = rows[ties]
            k = basis[rows].argmin()
        _pivot(tableau, basis, rows[k], q)
    return STATUS_ITER_LIMIT, it


def dual_pivot_loop(tableau, basis, n_enterable, tol, max_iter):
    """Pivot a dual feasible tableau to primal feasibility (dual simplex).

    Same layout as ``bland_pivot_loop``, with the reduced costs of the real
    objective in the last row, all >= -tol.  A basic artificial (index >=
    n_enterable) is fixed at 0.  A row is infeasible when its basic variable
    is past a bound by more than ``Tolerances.primal``: below 0, or off 0
    for an artificial.  Of several infeasible rows, the one with the largest
    (distance past its bound)^2 / ||e_r B^-1||^2 leaves (dual steepest
    edge), ties to the smallest basic variable; each weight is the squared
    norm of row r of the artificial columns, exact, with no update formula.
    A lone infeasible row leaves with no weight formed.  After
    ``_DEGENERATE_RUN`` dual-degenerate pivots in a row, the infeasible row
    holding the smallest basic variable leaves, until a pivot moves the
    dual objective.  The entering column, among columns < n_enterable whose
    row entry exceeds tol in the direction that moves the leaving variable
    to its bound (negative below 0, positive above), has the smallest ratio
    of reduced cost to the entry's size, ties to the smallest index, which
    keeps every reduced cost nonnegative.  Once no row is infeasible, each
    artificial at 0 leaves, smallest basic variable first, by the same
    entering rule on a real entry of either sign, by size: a degenerate
    pivot, which keeps dual feasibility either way, since a variable fixed
    at 0 never enters again.  An artificial whose row has no real entry
    above tol, an exactly redundant row, stays.  Returns (status, pivots):
    STATUS_OPTIMAL when no row is infeasible and no artificial can leave,
    STATUS_INFEASIBLE when an infeasible row has no entering column (no x
    >= 0 with zero artificials solves it), STATUS_ITER_LIMIT after max_iter
    pivots.
    """
    m = tableau.shape[0] - 1
    reduced = tableau[m, :n_enterable]
    rhs = tableau[:m, -1]
    inverse = tableau[:m, n_enterable:-1]
    primal = DEFAULT_TOL.primal
    artificial = basis >= n_enterable
    pivots = degenerate = 0
    while True:
        past = np.where(artificial, np.abs(rhs), -rhs)
        infeasible = past > primal
        rows = infeasible.nonzero()[0]
        if rows.size > 1 and degenerate < _DEGENERATE_RUN:
            # Dual steepest edge: distance past the bound, squared, over the
            # squared norm of row r of B^-1 (never 0), for every row at once;
            # a feasible row scores 0.
            score = np.where(infeasible, past, 0.0) ** 2 / np.einsum("ij,ij->i", inverse, inverse)
            rows = (score == score.max()).nonzero()[0]
        elif not rows.size:
            # An artificial at 0 leaves too, by the smallest index, where it can.
            rows = artificial.nonzero()[0]
            rows = rows[(np.abs(tableau[rows, :n_enterable]) > tol).any(axis=1)]
            if not rows.size:
                return STATUS_OPTIMAL, pivots
        if pivots == max_iter:
            return STATUS_ITER_LIMIT, pivots
        r = rows[basis[rows].argmin()]
        row = tableau[r, :n_enterable]
        size = np.sign(rhs[r]) * row if infeasible[r] else np.abs(row)
        cols = (size > tol).nonzero()[0]
        if not cols.size:
            return STATUS_INFEASIBLE, pivots
        ratios = np.maximum(reduced[cols], 0.0) / size[cols]
        k = ratios.argmin()
        degenerate = degenerate + 1 if ratios[k] <= tol else 0
        _pivot(tableau, basis, r, cols[k])
        artificial[r] = False
        pivots += 1


class WarmStart(NamedTuple):
    """An optimal basis (indices into ``[A | I]``) with its read-only inverse,
    which ``reuse_basis`` reads the same A and c off at another b."""

    basis: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class SimplexResult:
    """``warm_start`` carries the optimal basis with its inverse.  Any other
    status has NaN ``x``, ``objective`` and ``dual`` and no ``warm_start``.
    ``iterations`` counts the dual pivots of the repair and the iterations
    of the Bland loops that ran."""

    status: int
    x: np.ndarray
    objective: float
    dual: np.ndarray
    iterations: int
    warm_start: WarmStart | None = None


def _cost_row(tableau, basis, cost):
    """Reduced costs and minus the objective, ``cost - cost_B B^-1 [A | I | b]``,
    for the basis of a tableau whose body is already ``B^-1 [A | I | b]``."""
    m = basis.size
    return cost - cost[basis] @ tableau[:m]


def _max_iter(m, n):
    """The pivot cap of each loop of a solve of an m x n program."""
    return 200 + 50 * (m + n)


def _repair(A, b, cost):
    """``(status, tableau, basis, pivots)`` of the dual repair that opens a
    solve under the cost row ``cost``, from the all-artificial basis
    ``arange(n, n + m)``.  B = I, so the tableau is ``[A | I | b]``, and
    the artificials cost 0, so its reduced-cost row is ``cost`` itself."""
    m, n = A.shape
    tableau = np.vstack([np.concatenate([A, np.eye(m), b[:, None]], axis=1), cost])
    basis = np.arange(n, n + m)
    status, pivots = dual_pivot_loop(tableau, basis, n, DEFAULT_TOL.pivot, _max_iter(m, n))
    return status, tableau, basis, pivots


def _warm_start(tableau, basis, n):
    """The read-only ``WarmStart`` of an optimal tableau, B^-1 read off its artificial columns."""
    inverse = tableau[: basis.size, n : n + basis.size].copy()
    basis.flags.writeable = inverse.flags.writeable = False
    return WarmStart(basis, inverse)


def optimal_start(A, b, c):
    """The ``WarmStart`` that the dual repair from the all-artificial basis
    reaches at ``b``, under costs c >= 0, or None when that repair does not
    end optimal.  It serves reads of the same A and c at other right-hand
    sides, each certified on its own, so no Bland loop confirms it here:
    its pivots are dual pivots only."""
    m, n = A.shape
    status, tableau, basis, _ = _repair(A, b, np.concatenate([c, np.zeros(m + 1)]))
    return _warm_start(tableau, basis, n) if status == STATUS_OPTIMAL else None


def dual_violation(A, c, dual):
    """The worst excess of A^T y over the costs c, at least 0, for each row
    y of ``dual``: one stacked mat-vec, each with the bits of its own."""
    return np.maximum(0.0, ((A.T @ dual[:, :, None])[:, :, 0] - c).max(axis=1))


class Starts(tuple):
    """``WarmStart``s of one program, min c.x subject to A x = b, x >= 0, in
    the order they are tried, with what ``reuse_basis`` reads of them stacked
    once, one entry per start: ``inverses`` (k, m, m); ``basis``, ``real``
    (its basic columns of A) and the basic costs ``cost``, each (k, m); y =
    c_B B^-1 as ``dual`` (k, m), and its ``dual_violation`` (k,).  y does
    not depend on b, so every solution read off a start shares its y."""

    def __new__(cls, A, c, starts=()):
        table = super().__new__(cls, starts)
        m, n = A.shape
        table.basis = np.array([start.basis for start in table], dtype=np.int64).reshape(-1, m)
        table.inverses = np.array([start.inverse for start in table]).reshape(-1, m, m)
        table.real = table.basis < n
        table.cost = np.concatenate([c, np.zeros(m)])[table.basis]
        table.dual = np.array([cost @ start.inverse for cost, start in zip(table.cost, table)]).reshape(-1, m)
        table.violation = dual_violation(A, c, table.dual)
        for stack in (table.basis, table.inverses, table.real, table.cost, table.dual, table.violation):
            stack.flags.writeable = False
        return table


def reuse_basis(A, b, table):
    """What each right-hand side of the block ``b`` reads off the first of
    the ``Starts`` ``table`` that serves it: ``(starts, served, x,
    objective, dual, violation)``, one entry per row.

    Row j compares every start at its own b_j, x_B = B^-1 b_j: one stacked
    mat-vec, with the bits of ``inverse @ b_j`` alone.  A start serves b_j
    when no real x_B lies below 0, and no artificial off 0, by more than
    ``Tolerances.primal``.  A served row reads its x off the first start
    that serves it, c.x as a row sum with no BLAS, and shares that start's
    y and ``dual_violation``, so no row depends on another; ``served``
    marks these rows.  A row that no start serves (every row, when
    ``table`` is None or empty) must pivot: its start is None and its other
    fields 0."""
    (m, n), size = A.shape, len(b)
    starts, served = [None] * size, np.zeros(size, dtype=bool)
    x, objective, dual, violation = np.zeros((size, n + m)), np.zeros(size), np.zeros((size, m)), np.zeros(size)
    if table:
        x_B = (table.inverses[:, None] @ b[None, :, :, None])[..., 0]
        fits = (np.where(table.real[:, None], -x_B, np.abs(x_B)) <= DEFAULT_TOL.primal).all(axis=-1)
        served = fits.any(axis=0)
        rows = served.nonzero()[0]
        choice = fits[:, rows].argmax(axis=0)
        x_B = x_B[choice, rows]
        x[rows[:, None], table.basis[choice]] = x_B
        objective[rows] = (x_B * table.cost[choice]).sum(axis=1)
        dual[rows], violation[rows] = table.dual[choice], table.violation[choice]
        for j, k in zip(rows.tolist(), choice.tolist()):
            starts[j] = table[k]
    return starts, served, x[:, :n], objective, dual, violation


def solve_standard_form(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0, for costs c >= 0.

    The solve starts from the all-artificial basis ``arange(n, n + m)``.
    A solution that a ``WarmStart`` serves with no pivot is read off it by
    ``reuse_basis``, not here.

    STATUS_OPTIMAL means a primal feasible solution: the dual repair left
    no basic variable past its bound by more than ``Tolerances.primal``,
    and both Bland loops confirmed it.  The dual vector is read off the
    final tableau (artificial columns stay in the tableau, barred from
    entering), so callers can verify a zero duality gap on every reported
    solution.  Any other status, of the repair (STATUS_INFEASIBLE when no
    x >= 0 solves A x = b) or of either Bland loop, is the solve's
    verdict, with NaN ``x``, objective and dual and no ``warm_start``.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError(f"inconsistent LP shapes A={A.shape} b={b.shape} c={c.shape}")
    if not np.isfinite(b).all():
        raise ValueError("LP right-hand side is not finite")
    if not (c >= 0.0).all():
        raise ValueError("LP costs must be nonnegative")
    real_cost = np.zeros(n + m + 1)
    real_cost[:n] = c
    artificial_cost = np.zeros(n + m + 1)
    artificial_cost[n : n + m] = 1.0
    status, tableau, basis, iterations = _repair(A, b, real_cost)
    # Phase 1, then phase 2, each over the repaired tableau, confirm it.
    for cost in (artificial_cost, real_cost):
        if status != STATUS_OPTIMAL:
            break
        tableau[m] = _cost_row(tableau, basis, cost)
        status, it = bland_pivot_loop(tableau, basis, n, DEFAULT_TOL.pivot, _max_iter(m, n))
        iterations += it
    if status != STATUS_OPTIMAL:
        return SimplexResult(status, np.full(n, np.nan), np.nan, np.full(m, np.nan), iterations)
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = tableau[:m, -1][real]
    # The artificial columns hold B^-1 and their reduced costs -y.
    dual = -tableau[m, n : n + m]
    return SimplexResult(status, x, float(-tableau[m, -1]), dual, iterations, _warm_start(tableau, basis, n))
