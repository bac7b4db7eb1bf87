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
1997, secs. 3.3 and 5.1).  ``Starts`` stacks several bases of one program
once; ``reuse_basis`` picks, for each right-hand side of a block on its
own, the one to start from, one that serves it where any does, and reads
it off that one, x_B = B^-1 b, with no pivot.

``solve_standard_form`` solves an LP that must pivot by dual simplex (sec.
4.5), with no phase-1 walk.  Costs are nonnegative, so the all-artificial
basis, B = I, is dual feasible: artificials cost 0 in the real objective,
so y = 0 and each real reduced cost is c_j.  This cold start and a
``WarmStart`` start alike: B^-1 [A | I | b] is one product with the
inverse they carry, never refactored, and ``dual_pivot_loop`` repairs it.
That loop counts a basic artificial as fixed at 0, so it drives out every
artificial off 0, and then every one at 0 on a real entry of either sign
(Koberstein, *The dual simplex method*, PhD thesis, Paderborn, 2005); only
an exactly redundant row keeps one, and the package's programs have none.
A warm start that cannot be repaired gives way to the cold start, whose
failed repair is the solve's verdict.  Phase 1 and phase 2 follow, each
Bland loop confirming the repaired tableau.  ``optimal_start`` runs the
cold repair alone, for a basis kept only to start other solves from.  The
optimal value does not depend on the start beyond rounding; where an LP
has several optimal vertices, ``x`` may.  A repair
judges feasibility at ``Tolerances.primal``, far below the pivot
tolerance: a basic variable a pivot tolerance below 0 reads an infeasible
vertex's value.
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
# cycle, so no degenerate run lasts for ever.  The longest run seen on the
# package's programs is 46.
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
    for a solve of the same A and c at another b."""

    basis: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class SimplexResult:
    """``warm_start`` carries the optimal basis with its inverse (None for any
    other status); ``iterations`` counts the dual pivots of the repair and
    the iterations of both Bland loops."""

    status: int
    x: np.ndarray
    objective: float
    dual: np.ndarray
    iterations: int
    warm_start: WarmStart | None = None


_INVERSE_DRIFT = 1e-12  # largest max|B B^-1 - I| at which a carried B^-1 is used


def _cost_row(tableau, basis, cost):
    """Reduced costs and minus the objective, ``cost - cost_B B^-1 [A | I | b]``,
    for the basis of a tableau whose body is already ``B^-1 [A | I | b]``."""
    m = basis.size
    return cost - cost[basis] @ tableau[:m]


def _start_from_basis(A, b, cost, start, tol, max_iter):
    """``(status, tableau, basis, pivots)`` of ``dual_pivot_loop`` run on
    ``B^-1 [A | I | b]`` over the reduced costs under ``cost``, for the
    ``WarmStart`` ``start``; or None when ``start`` cannot start the solve:
    max|B B^-1 - I| > ``_INVERSE_DRIFT``, B ill conditioned, or a real
    reduced cost below -tol (not dual feasible)."""
    m, n = A.shape
    body = np.concatenate([A, np.eye(m), b[:, None]], axis=1)
    B = body[:, start.basis]
    if not np.abs(B @ start.inverse - np.eye(m)).max() <= _INVERSE_DRIFT:
        return None
    body = start.inverse @ body
    # Round-off in B^-1 times data grows with the 1-norm condition number of B
    # (B^-1 sits in the artificial columns); past tol/eps it could carry an
    # entry across the pivot tolerance.  NaN fails this test too.
    condition = np.abs(B).sum(axis=0).max() * np.abs(body[:, n : n + m]).sum(axis=0).max()
    if not condition * np.finfo(np.float64).eps <= tol:
        return None
    tableau = np.vstack([body, _cost_row(body, start.basis, cost)])
    if np.any(tableau[m, :n] < -tol):
        return None
    basis = np.array(start.basis, dtype=np.int64)
    status, pivots = dual_pivot_loop(tableau, basis, n, tol, max_iter)
    return status, tableau, basis, pivots


def _max_iter(m, n):
    """The pivot cap of each loop of a solve of an m x n program."""
    return 200 + 50 * (m + n)


def _repair(A, b, cost, start):
    """``(status, tableau, basis, pivots)`` of the dual repair that opens a
    solve under the cost row ``cost``: from the ``WarmStart`` ``start`` when
    ``_start_from_basis`` repairs it to optimality, and otherwise from the
    all-artificial basis ``arange(n, n + m)``, whose outcome stands."""
    m, n = A.shape
    tol, max_iter = DEFAULT_TOL.pivot, _max_iter(m, n)
    repaired = start and _start_from_basis(A, b, cost, start, tol, max_iter)
    if not repaired or repaired[0] != STATUS_OPTIMAL:
        cold = WarmStart(np.arange(n, n + m), np.eye(m))
        repaired = _start_from_basis(A, b, cost, cold, tol, max_iter)
    return repaired


def _warm_start(tableau, basis, n):
    """The read-only ``WarmStart`` of an optimal tableau, B^-1 read off its artificial columns."""
    inverse = tableau[: basis.size, n : n + basis.size].copy()
    basis.flags.writeable = inverse.flags.writeable = False
    return WarmStart(basis, inverse)


def optimal_start(A, b, c):
    """The ``WarmStart`` that the dual repair from the all-artificial basis
    reaches at ``b``, under costs c >= 0, or None when that repair does not
    end optimal.  It is a start for solves of the same A and c at other
    right-hand sides, each of which checks it again and is certified, so
    no Bland loop confirms it here: its pivots are dual pivots only."""
    m, n = A.shape
    status, tableau, basis, _ = _repair(A, b, np.concatenate([c, np.zeros(m + 1)]), None)
    return _warm_start(tableau, basis, n) if status == STATUS_OPTIMAL else None


def _excess(x_B, real):
    """Sum over the basis (last axis) of how far x_B lies past its bound by
    more than ``Tolerances.primal``: below 0 for a ``real`` variable, off 0
    for an artificial.  0 where feasible."""
    off = np.where(real, -x_B, np.abs(x_B)) - DEFAULT_TOL.primal
    return np.maximum(off, 0.0).sum(axis=-1)


def dual_violation(A, c, dual):
    """The worst excess of A^T y over the costs c, at least 0, for each row
    y of ``dual``: one stacked mat-vec, each with the bits of its own."""
    return np.maximum(0.0, ((A.T @ dual[:, :, None])[:, :, 0] - c).max(axis=1))


class Starts(tuple):
    """``WarmStart``s of one program, min c.x subject to A x = b, x >= 0,
    latest first, with what ``reuse_basis`` reads of them stacked once, one
    entry per start: ``inverses`` (k, m, m); ``basis``, ``real`` (its basic
    columns of A) and the basic costs ``cost``, each (k, m); y = c_B B^-1 as
    ``dual`` (k, m), and its ``dual_violation`` (k,).  y does not depend on
    b, so every solution read off a start shares its y and its check."""

    def __new__(cls, A, c, starts=()):
        held = super().__new__(cls, starts)
        m, n = A.shape
        held.basis = np.array([start.basis for start in held], dtype=np.int64).reshape(-1, m)
        held.inverses = np.array([start.inverse for start in held]).reshape(-1, m, m)
        held.real = held.basis < n
        held.cost = np.concatenate([c, np.zeros(m)])[held.basis]
        held.dual = np.array([cost @ start.inverse for cost, start in zip(held.cost, held)]).reshape(-1, m)
        held.violation = dual_violation(A, c, held.dual)
        for stack in (held.basis, held.inverses, held.real, held.cost, held.dual, held.violation):
            stack.flags.writeable = False
        return held


def reuse_basis(A, b, held):
    """Each right-hand side's start, of the ``Starts`` ``held``, and what
    it reads off that start: ``(starts, served, x, objective, dual,
    violation)``, one entry per row of the block ``b``.

    Row j compares every start at its own b_j, x_B = B^-1 b_j: one stacked
    mat-vec, with the bits of ``inverse @ b_j`` alone.  A start serves b_j
    when x_B has no ``_excess``.  The row takes the latest start that
    serves it, or else the one with the least ``_excess``, ties to the
    latest, and ``served`` marks the rows some start serves.  Each row's x,
    c.x and the start's y and its ``dual_violation`` are read off its
    start, whether it serves the row or not, so no row depends on another.
    A row no start serves, and each row when ``held`` is empty (its start
    None, the rest 0), must pivot instead."""
    (m, n), rows = A.shape, np.arange(len(b))
    if not held:
        none = np.zeros(len(b))
        return [None] * len(b), none > 0, np.zeros((len(b), n)), none, np.zeros((len(b), m)), none.copy()
    x_B = (held.inverses[:, None] @ b[None, :, :, None])[..., 0]
    fits = (np.where(held.real[:, None], -x_B, np.abs(x_B)) <= DEFAULT_TOL.primal).all(axis=-1)
    choice, served = fits.argmax(axis=0), fits.any(axis=0)
    if not served.all():
        choice[~served] = _excess(x_B[:, ~served], held.real[:, None]).argmin(axis=0)
    x_B, x, objective = x_B[choice, rows], np.zeros((len(b), n + m)), np.empty(len(b))
    x[rows[:, None], held.basis[choice]] = x_B
    picks = choice.tolist()
    for k in set(picks):
        # One product per start, its c_B shared as in a lone read: a c_B
        # gathered per row moves the last bits under some BLAS kernels.
        at = choice == k
        objective[at] = (x_B[at, None, :] @ held.cost[k, :, None])[:, 0, 0]
    return [held[k] for k in picks], served, x[:, :n], objective, held.dual[choice], held.violation[choice]


def solve_standard_form(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: WarmStart | None = None) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0, for costs c >= 0.

    ``basis`` is None for a cold solve or the ``WarmStart`` of an optimal
    solve of the same A and c.  The solve starts from its basis when
    ``_start_from_basis`` repairs it, and otherwise from the all-artificial
    basis ``arange(n, n + m)``, whose failed repair (STATUS_INFEASIBLE or
    STATUS_ITER_LIMIT) is returned as it is.  A solution that a
    ``WarmStart`` serves with no pivot is read off it by ``reuse_basis``,
    not here.

    STATUS_OPTIMAL means a primal feasible solution: the dual repair left
    no basic variable past its bound by more than ``Tolerances.primal``.
    Failing that is STATUS_INFEASIBLE, with zero ``x`` and dual and a NaN
    objective, as for every failed start.  The dual vector is read off the
    final tableau (artificial columns stay in the tableau, barred from
    entering), so callers can verify a zero duality gap on every reported
    solution.
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
    tol, max_iter = DEFAULT_TOL.pivot, _max_iter(m, n)
    real_cost = np.zeros(n + m + 1)
    real_cost[:n] = c
    status, tableau, basis, it0 = _repair(A, b, real_cost, basis)
    if status != STATUS_OPTIMAL:
        return SimplexResult(status, np.zeros(n), np.nan, np.zeros(m), it0)

    # Phase 1, then phase 2, each over the repaired tableau, confirm it.
    artificial_cost = np.zeros(n + m + 1)
    artificial_cost[n : n + m] = 1.0
    tableau[m] = _cost_row(tableau, basis, artificial_cost)
    status, it1 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    if status != STATUS_OPTIMAL:
        return SimplexResult(status, np.zeros(n), np.nan, np.zeros(m), it0 + it1)
    tableau[m] = _cost_row(tableau, basis, real_cost)
    status, it2 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = tableau[:m, -1][real]
    objective = float(-tableau[m, -1])
    # The artificial columns hold B^-1 and their reduced costs -y.
    dual = -tableau[m, n : n + m]
    warm_start = _warm_start(tableau, basis, n) if status == STATUS_OPTIMAL else None
    return SimplexResult(status, x, objective, dual, it0 + it1 + it2, warm_start)
