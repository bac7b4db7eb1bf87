"""Dense two-phase tableau simplex, with dual simplex starts.

The embedded LP engine behind every robustness value.  Problems are small
(a few hundred columns, a few dozen rows) but solved thousands of times per
sweep, so the pivot loops, a handful of whole-array numpy operations per
pivot, are the package's hot kernel.  Bland-type rules (smallest eligible
index, ties to the smallest basic variable) keep every walk deterministic.

Every optimal solve returns its basis with the inverse B^-1 read off its
final tableau, as one ``WarmStart``.  Reduced costs and y = c_B B^-1 do not
depend on ``b``, so an optimal basis stays optimal while it stays primal
feasible (Bertsimas & Tsitsiklis, *Introduction to Linear Optimization*,
1997, secs. 3.3 and 5.1).  ``reuse_basis`` reads a block of right-hand
sides off one ``WarmStart``, x_B = B^-1 b, while it serves them, down to
``Tolerances.primal``; of several held bases, ``least_infeasible`` picks
the one to start from, one that serves ``b`` where any does.

Every other solve pivots by dual simplex (sec. 4.5) from a dual feasible
start, with no phase-1 walk.  For c >= 0 the all-artificial basis, B = I,
is one: artificials cost 0 in the real objective, so y = 0 and each real
reduced cost is c_j.  ``dual_pivot_loop`` counts a basic artificial as
fixed at 0, so it drives out every artificial off 0, and every one at 0
that can leave (Koberstein, *The dual simplex method*, PhD thesis,
Paderborn, 2005); one on a redundant row, which no pivot moves, is left to
phase 1's cut.  A ``WarmStart`` starts from B^-1 [A | I | b], one product
with its carried inverse, never refactored.  A drifted inverse (B B^-1 off
I by more than ``_INVERSE_DRIFT``), a start that is not dual feasible (some
c_j < 0) and a failed repair give way: a warm start to the cold one, a
cold one to the classic start, B = I with phase 1 from b >= 0 (sec. 3.5).
Phase 1, the drive-out of leftover artificials and phase 2 follow either
way, each Bland loop one iteration after a repair.  The optimal value does
not depend on the start beyond rounding; where an LP has several optimal
vertices, ``x`` may.  A repair judges feasibility at ``Tolerances.primal``,
far below the pivot tolerance: a basic variable a pivot tolerance below 0
reads an infeasible vertex's value.
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
    n_enterable) is fixed at 0.  A row is infeasible below
    -``Tolerances.primal``, or above it for an artificial.  The infeasible
    row holding the smallest basic variable leaves; the entering column,
    among columns < n_enterable whose row entry exceeds tol in the
    direction that moves the leaving variable to its bound (negative below
    0, positive above), has the smallest ratio of reduced cost to the
    entry's size, ties to the smallest index, which keeps every reduced cost
    nonnegative.  Once no row is infeasible, each artificial at 0 on a row
    with a positive real entry leaves by the same rule: a degenerate pivot.
    An artificial on a redundant row (no real entry above tol) stays, for
    phase 1's cut to judge.  Returns (status, pivots): STATUS_OPTIMAL when
    no row is infeasible and no artificial can leave, STATUS_INFEASIBLE when
    another infeasible row has no entering column (no x >= 0 with zero
    artificials solves it), STATUS_ITER_LIMIT after max_iter pivots.
    """
    m = tableau.shape[0] - 1
    reduced = tableau[m, :n_enterable]
    rhs = tableau[:m, -1]
    primal = DEFAULT_TOL.primal
    artificial = basis >= n_enterable
    redundant = np.zeros(m, dtype=bool)
    pivots = 0
    while True:
        rows = ((np.where(artificial, np.abs(rhs), -rhs) > primal) & ~redundant).nonzero()[0]
        if not rows.size:
            # An artificial at 0 leaves too, by the same rule, where it can.
            rows = artificial.nonzero()[0]
            rows = rows[(tableau[rows, :n_enterable] > tol).any(axis=1)]
            if not rows.size:
                return STATUS_OPTIMAL, pivots
        if pivots == max_iter:
            return STATUS_ITER_LIMIT, pivots
        r = rows[basis[rows].argmin()]
        row = tableau[r, :n_enterable]
        size = -row if rhs[r] < -primal else row
        cols = (size > tol).nonzero()[0]
        if not cols.size:
            if artificial[r] and not (np.abs(row) > tol).any():
                redundant[r] = True
                continue
            return STATUS_INFEASIBLE, pivots
        ratios = np.maximum(reduced[cols], 0.0) / size[cols]
        _pivot(tableau, basis, r, cols[ratios.argmin()])
        artificial[r] = False
        pivots += 1


class WarmStart(NamedTuple):
    """An optimal basis (indices into ``[A | I]``) with its read-only inverse,
    for a solve of the same A and c at another b.  The inverse is unflipped (a
    flipped row's artificial column is -e_i), so B^-1 b holds for any signs."""

    basis: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class SimplexResult:
    """``warm_start`` carries the optimal basis with its inverse (None for any
    other status); ``iterations`` is 0 for a solution read off a ``WarmStart``."""

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


def _start_from_basis(A, b, cost, basis, tol, max_iter, inverse=None):
    """Primal feasible tableau body ``B^-1 [A | I | b]`` for a starting basis
    over the columns of ``[A | I]``, with the basis it ends on and the dual
    pivots it took; or None when the basis cannot start the solve.

    B^-1 [A | I | b] is one product with ``inverse``, the carried B^-1,
    which must pass max|B inverse - I| <= ``_INVERSE_DRIFT``, for a well
    conditioned B.  A start must be dual feasible, every real reduced cost
    under ``cost`` >= -tol, and is repaired by ``dual_pivot_loop``.  The
    all-artificial basis (B = I) that is not repaired starts as it is: the
    classic start, primal feasible for ``b >= 0``."""
    m, n = A.shape
    basis = np.array(basis, dtype=np.int64)
    body = np.concatenate([A, np.eye(m), b[:, None]], axis=1)
    cold = np.array_equal(basis, np.arange(n, n + m))
    if not cold:
        B = body[:, basis]
        if inverse is None or not np.abs(B @ inverse - np.eye(m)).max() <= _INVERSE_DRIFT:
            return None
        body = inverse @ body
        # Round-off in B^-1 times data grows with the 1-norm condition number of B
        # (B^-1 sits in the artificial columns); past tol/eps it could carry an
        # entry across the pivot tolerance.  NaN fails this test too.
        condition = np.abs(B).sum(axis=0).max() * np.abs(body[:, n : n + m]).sum(axis=0).max()
        if not condition * np.finfo(np.float64).eps <= tol:
            return None
    tableau = np.vstack([body, _cost_row(body, basis, cost)])
    if not np.any(tableau[m, :n] < -tol):
        repaired = basis.copy()
        status, pivots = dual_pivot_loop(tableau, repaired, n, tol, max_iter)
        if status == STATUS_OPTIMAL:
            return tableau[:m], repaired, pivots
    return (body, basis, 0) if cold else None


def _excess(x_B, real):
    """Sum over the basis (last axis) of how far x_B lies past
    ``Tolerances.primal`` below 0 for a ``real`` variable, or off 0 for an
    artificial (which sits only on a redundant row): 0 where feasible."""
    off = np.where(real, -x_B, np.abs(x_B)) - DEFAULT_TOL.primal
    return np.maximum(off, 0.0).sum(axis=-1)


def reuse_basis(A, b, c, start):
    """The solutions at ``start``'s basis of the leading right-hand sides it
    serves in the block ``b``, one per row: ``(served, x, objective, dual)``.

    x_B = B^-1 b_j is one stacked mat-vec over the block, with the bits of
    ``start.inverse @ b_j`` for each row alone.  Row j is served when its
    ``_excess`` is 0; ``served`` counts the rows before the first that is
    not, and ``x`` (served, n) and ``objective`` (served,) hold their
    solutions.  The dual y = c_B B^-1 is the same for every row.  When no
    row is served, all three are None."""
    m, n = A.shape
    x_B = (start.inverse @ b[:, :, None])[:, :, 0]
    real = start.basis < n
    feasible = _excess(x_B, real) == 0.0
    served = len(b) if feasible.all() else int(feasible.argmin())
    if not served:
        return 0, None, None, None
    x = np.zeros((served, n))
    x[:, start.basis[real]] = x_B[:served, real]
    cost_B = np.concatenate([c, np.zeros(m)])[start.basis]
    objective = (x_B[:served, None, :] @ cost_B[:, None])[:, 0, 0]
    return served, x, objective, cost_B @ start.inverse


def least_infeasible(A, b, held):
    """Of the ``WarmStart``s ``held``, most recent last, the one with the least
    ``_excess`` at ``b`` (one that serves it where any does), ties to the latest."""
    excess = [_excess(start.inverse @ b, start.basis < A.shape[1]) for start in reversed(held)]
    return held[-1 - int(np.argmin(excess))]


def solve_standard_form(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: WarmStart | None = None) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0.

    ``basis`` is None for a cold solve or the ``WarmStart`` of an optimal
    solve of the same A and c.  A ``WarmStart`` gives the solution at its
    basis, with no pivot loop, while that basis is primal feasible for
    ``b`` (``reuse_basis``).  Otherwise the solve starts from its basis when
    ``_start_from_basis`` accepts it, and otherwise, through the same call,
    from the all-artificial basis ``arange(n, n + m)``.  ``iterations``
    counts the dual pivots of a repair too.

    STATUS_OPTIMAL means a primal feasible solution: phase 1 left at most
    ``100 * tol`` of artificial mass and x >= -tol, for the pivot tolerance
    ``tol = DEFAULT_TOL.pivot``.  Failing either is STATUS_INFEASIBLE, with
    zero ``x`` and dual and a NaN objective, as for every phase-1 failure.
    The dual vector is read off the final tableau (artificial columns stay
    in the tableau, barred from entering), so callers can verify a zero
    duality gap on every reported solution.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).copy()
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError(f"inconsistent LP shapes A={A.shape} b={b.shape} c={c.shape}")
    if not np.isfinite(b).all():
        raise ValueError("LP right-hand side is not finite")
    tol = DEFAULT_TOL.pivot
    if basis is not None:
        served, x, objective, dual = reuse_basis(A, b[None], c, basis)
        if served:
            return SimplexResult(STATUS_OPTIMAL, x[0], float(objective[0]), dual, 0, basis)
    max_iter = 200 + 50 * (m + n)

    # Phase 1 over [A | I | b] with every rhs made nonnegative first, so
    # the all-artificial basis is always a primal feasible start.
    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b[flip] *= -1.0

    real_cost = np.zeros(n + m + 1)
    real_cost[:n] = c
    signs = np.where(flip, -1.0, 1.0)
    # In this frame, B^-1 is the carried (unflipped) inverse times the flips.
    warm = basis and _start_from_basis(A, b, real_cost, basis.basis, tol, max_iter, basis.inverse * signs)
    body, basis, it0 = warm or _start_from_basis(A, b, real_cost, np.arange(n, n + m), tol, max_iter)
    artificial_cost = np.zeros(n + m + 1)
    artificial_cost[n : n + m] = 1.0
    tableau = np.concatenate([body, _cost_row(body, basis, artificial_cost)[None]])

    status, it1 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    # Leftover phase-1 mass, |x_B| summed (a repair may leave an artificial below
    # 0 on a redundant row), bounds the residual: cut well under the 1e-7 contract.
    phase1_mass = np.abs(tableau[:m, -1][basis >= n]).sum()
    if status == STATUS_OPTIMAL and phase1_mass > 100 * tol:
        status = STATUS_INFEASIBLE
    if status != STATUS_OPTIMAL:
        return SimplexResult(status, np.zeros(n), np.nan, np.zeros(m), it0 + it1)

    # Pivot leftover artificials out where possible (first real column with
    # a usable entry); a row with no real pivot entry is a redundant
    # constraint and stays inert at zero.
    for i in np.flatnonzero(basis >= n):
        nz = np.flatnonzero(np.abs(tableau[i, :n]) > tol)
        if nz.size:
            _pivot(tableau, basis, i, nz[0])

    # Phase 2: rebuild the objective row for the real costs.
    tableau[m] = _cost_row(tableau, basis, real_cost)

    status, it2 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    iterations = it0 + it1 + it2
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = tableau[:m, -1][real]
    # A drive-out pivot on a negative entry turns leftover phase-1 mass into
    # a negative x: the LP is infeasible by more than the tolerance.
    if status == STATUS_OPTIMAL and x.min() < -tol:
        return SimplexResult(STATUS_INFEASIBLE, np.zeros(n), np.nan, np.zeros(m), iterations)
    objective = float(-tableau[m, -1])
    # The artificial columns hold B^-1 and their reduced costs -y; undo the
    # rhs sign flips in both.
    dual = -tableau[m, n : n + m] * signs
    inverse = tableau[:m, n : n + m] * signs
    basis.flags.writeable = inverse.flags.writeable = False
    warm_start = WarmStart(basis, inverse) if status == STATUS_OPTIMAL else None
    return SimplexResult(status, x, objective, dual, iterations, warm_start)
