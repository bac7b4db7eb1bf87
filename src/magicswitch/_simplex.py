"""Dense two-phase tableau simplex with Bland's rule.

This is the embedded LP engine behind every robustness value.  Problems are
small (at most a few hundred columns and a few dozen rows) but are solved
thousands of times per parameter sweep, so the pivot loop is the package's
hot kernel: each pivot is a handful of whole-array numpy operations.

Bland's rule (smallest eligible index enters; ratio ties broken by smallest
basic variable index) makes the walk deterministic and cycle-free, so
repeated runs produce bit-identical solutions.

Every optimal solve returns its basis with the inverse B^-1 read off its
final tableau, as one ``WarmStart``.  Reduced costs and the dual
y = c_B B^-1 do not depend on ``b``, so an optimal basis stays optimal
while it stays primal feasible (Bertsimas & Tsitsiklis, *Introduction to
Linear Optimization*, 1997, secs. 3.3 and 5.1).  ``reuse_basis`` tests a
whole block of right-hand sides against one ``WarmStart``: x_B = B^-1 b for
every column, one stacked mat-vec, gives the solutions of the leading
columns that stay feasible, down to ``Tolerances.primal``.  A solve given a
``WarmStart`` returns that solution when its one column is served.  A
threshold search reads its crossing off the same B^-1
(``experiments._basis_root``).  Otherwise phase 1 runs from the tableau
``B^-1 [A | I | b]`` of a starting basis, with its phase-1 cost row.  A
cold solve starts from the all-artificial basis, B = I, the classic
two-phase start (sec. 3.5).  A starting basis that is primal infeasible for
``b`` but still dual feasible for the real costs, as a neighbour's optimal
basis is, is first repaired by dual simplex pivots (``dual_pivot_loop``,
sec. 4.5).  A basis that cannot start the solve, and a repair that finds no
entering column or runs past the iteration limit, give way to the
all-artificial basis.  A ``WarmStart`` is the only start a caller can pass.
The optimal value does not depend on the start beyond rounding; where an LP
has several optimal vertices, ``x`` may.  Only a primal feasible solution
is reported optimal.

Primal feasibility (the reuse test, a starting basis's feasible test and
the dual simplex's leaving rows) is judged at ``Tolerances.primal``, far
below the pivot tolerance: a basic variable a pivot tolerance below 0 reads
the value of an infeasible vertex, up to that tolerance below the optimum.
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
    objective in the last row, all >= -tol.  Bland-type rules keep the walk
    deterministic and cycle-free: the leaving row is the row with a
    right-hand side below -``Tolerances.primal`` that holds the smallest
    basic variable, and the entering column, among columns < n_enterable
    with a row entry below -tol, the one with the smallest ratio of reduced
    cost to minus that entry (ties to the smallest index), which keeps every
    reduced cost nonnegative.  Returns (status, pivots): STATUS_OPTIMAL once
    every right-hand side is >= -primal, STATUS_INFEASIBLE when the leaving
    row has no entering column (no x >= 0 with zero artificials solves that
    row), STATUS_ITER_LIMIT after max_iter pivots.
    """
    m = tableau.shape[0] - 1
    reduced = tableau[m, :n_enterable]
    rhs = tableau[:m, -1]
    pivots = 0
    while True:
        rows = (rhs < -DEFAULT_TOL.primal).nonzero()[0]
        if not rows.size:
            return STATUS_OPTIMAL, pivots
        if pivots == max_iter:
            return STATUS_ITER_LIMIT, pivots
        r = rows[basis[rows].argmin()]
        row = tableau[r, :n_enterable]
        cols = (row < -tol).nonzero()[0]
        if not cols.size:
            return STATUS_INFEASIBLE, pivots
        ratios = np.maximum(reduced[cols], 0.0) / -row[cols]
        _pivot(tableau, basis, r, cols[ratios.argmin()])
        pivots += 1


class WarmStart(NamedTuple):
    """An optimal basis (indices into ``[A | I]``) with its read-only inverse,
    to start a solve of the same A and c at another b.  The inverse is in the
    unflipped frame, where the artificial column of a row that solve flipped
    is -e_i, so B^-1 b holds whatever the signs of the new b."""

    basis: np.ndarray
    inverse: np.ndarray


@dataclass(frozen=True)
class SimplexResult:
    """``warm_start`` carries the optimal basis with its inverse and is None
    for any other status; ``iterations`` is 0 when a ``WarmStart`` gave the
    solution without a pivot loop."""

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


def _start_from_basis(A, b, cost, basis, tol, max_iter):
    """Primal feasible tableau body ``B^-1 [A | I | b]`` for a starting basis
    over the columns of ``[A | I]``, with the basis it ends on and the dual
    pivots it took; or None when the basis cannot start the solve: it is
    numerically singular or ill conditioned, or it is primal infeasible
    (below -``Tolerances.primal``) for this ``b`` and not repaired.  The
    repair runs ``dual_pivot_loop`` when every reduced cost of the real
    columns under ``cost`` is >= -tol, and fails when the loop does not
    reach primal feasibility.  The
    all-artificial basis has B = I, its own inverse, so it skips the solve
    and the condition test: the body is the data itself."""
    m, n = A.shape
    basis = np.array(basis, dtype=np.int64)
    body = np.concatenate([A, np.eye(m), b[:, None]], axis=1)
    if not np.array_equal(basis, np.arange(n, n + m)):
        B = body[:, basis]
        try:
            body = np.linalg.solve(B, body)
        except np.linalg.LinAlgError:
            return None
        # Round-off in B^-1 times data grows with the 1-norm condition number
        # of B (B^-1 sits in the artificial columns); past tol/eps it could
        # carry an entry across the pivot tolerance.  NaN fails this test too.
        condition = np.abs(B).sum(axis=0).max() * np.abs(body[:, n : n + m]).sum(axis=0).max()
        if not condition * np.finfo(np.float64).eps <= tol:
            return None
    if (body[:, -1] >= -DEFAULT_TOL.primal).all():
        return body, basis, 0
    tableau = np.vstack([body, _cost_row(body, basis, cost)])
    if np.any(tableau[m, :n] < -tol):
        return None
    status, pivots = dual_pivot_loop(tableau, basis, n, tol, max_iter)
    if status != STATUS_OPTIMAL:
        return None
    return tableau[:m], basis, pivots


def reuse_basis(A, b, c, start):
    """The solutions at ``start``'s basis of the leading right-hand sides it
    serves in the block ``b``, one per row: ``(served, x, objective, dual)``.

    x_B = B^-1 b_j is one stacked mat-vec over the block, with the bits of
    ``start.inverse @ b_j`` for each row alone.  Row j is served when every
    real entry of its x_B is >= -``Tolerances.primal`` and every artificial
    one, which sits only on a redundant row, within that of zero; ``served``
    counts the rows before the first that is not, and ``x`` (served, n) and
    ``objective`` (served,) hold their solutions.  The dual y = c_B B^-1 is
    the same for every row.  When no row is served, all three are None."""
    m, n = A.shape
    tol = DEFAULT_TOL.primal
    x_B = (start.inverse @ b[:, :, None])[:, :, 0]
    real = start.basis < n
    feasible = ((x_B >= -tol) & ((x_B <= tol) | real)).all(axis=1)
    served = len(b) if feasible.all() else int(feasible.argmin())
    if not served:
        return 0, None, None, None
    x = np.zeros((served, n))
    x[:, start.basis[real]] = x_B[:served, real]
    cost_B = np.concatenate([c, np.zeros(m)])[start.basis]
    objective = (x_B[:served, None, :] @ cost_B[:, None])[:, 0, 0]
    return served, x, objective, cost_B @ start.inverse


def solve_standard_form(A: np.ndarray, b: np.ndarray, c: np.ndarray, basis: WarmStart | None = None) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0.

    ``basis`` is None for a cold solve or the ``WarmStart`` of an optimal
    solve of the same A and c.  A ``WarmStart`` gives the solution at its
    basis, with no pivot loop, while that basis is primal feasible for
    ``b`` (``reuse_basis``).  Otherwise phase 1 starts from its basis when
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
    start = None if basis is None else _start_from_basis(A, b, real_cost, basis.basis, tol, max_iter)
    if start is None:
        start = _start_from_basis(A, b, real_cost, np.arange(n, n + m), tol, max_iter)
    body, basis, it0 = start
    artificial_cost = np.zeros(n + m + 1)
    artificial_cost[n : n + m] = 1.0
    tableau = np.concatenate([body, _cost_row(body, basis, artificial_cost)[None]])

    status, it1 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    phase1_obj = -tableau[m, -1]
    # Leftover phase-1 mass bounds the constraint residual of any reported
    # solution, so the feasibility cut sits well under the 1e-7 contract.
    if status == STATUS_OPTIMAL and phase1_obj > 100 * tol:
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
    signs = np.where(flip, -1.0, 1.0)
    dual = -tableau[m, n : n + m] * signs
    inverse = tableau[:m, n : n + m] * signs
    basis.flags.writeable = inverse.flags.writeable = False
    warm_start = WarmStart(basis, inverse) if status == STATUS_OPTIMAL else None
    return SimplexResult(status, x, objective, dual, iterations, warm_start)
