"""Dense two-phase tableau simplex with Bland's rule.

This is the embedded LP engine behind every robustness value.  Problems are
small (at most a few hundred columns and a few dozen rows) but are solved
thousands of times per parameter sweep, so the pivot loop is the package's
hot kernel: each pivot is a handful of whole-array numpy operations.

Bland's rule (smallest eligible index enters; ratio ties broken by smallest
basic variable index) makes the walk deterministic and cycle-free, so
repeated runs produce bit-identical solutions.

A solve can start from a given basis, such as the optimal basis of the
same LP at a neighbouring parameter value.  When that basis is nonsingular,
well conditioned and primal feasible for the new right-hand side, phase 1
starts from the tableau ``B^-1 [A | I | b]`` with its phase-1 cost row
instead of from the all-artificial basis.  Phase 1 then ends at its first
check, and since reduced costs do not depend on ``b``, a basis that was
optimal for the neighbour is still optimal and phase 2 ends there too.
Both phases, the infeasibility cut, the artificial drive-out and the dual
read-off are the same code either way.  Any other basis falls back to the
artificial start.  The optimal value does not depend on the start beyond
rounding; where an LP has several optimal vertices, ``x`` may.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2
STATUS_INFEASIBLE = 3

_PIVOT_TOL = 1e-9


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
    smallest basic variable), and the update one rank-1 subtraction.  The
    subtraction skips the pivot row and the rows whose pivot-column entry
    is zero, so every entry gets the same floating-point operations as a
    row-by-row elimination and the walk is identical to it bit for bit.
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
        r = rows[k]
        tableau[r] /= tableau[r, q]
        update = column != 0.0
        update[r] = False
        np.subtract(
            tableau, np.multiply.outer(column, tableau[r]), out=tableau, where=update[:, None]
        )
        basis[r] = q
    return STATUS_ITER_LIMIT, it


@dataclass(frozen=True)
class SimplexResult:
    status: int
    x: np.ndarray
    objective: float
    dual: np.ndarray
    iterations: int
    basis: np.ndarray


def _cost_row(tableau, basis, cost):
    """Reduced costs and minus the objective, ``cost - cost_B B^-1 [A | I | b]``,
    for the basis of a tableau whose body is already ``B^-1 [A | I | b]``."""
    m = basis.size
    return cost - cost[basis] @ tableau[:m]


def _start_from_basis(A, b, basis, tol):
    """Phase-1 tableau body ``B^-1 [A | I | b]`` for a starting basis over the
    columns of ``[A | I]``, or None when the basis cannot start the solve:
    wrong length, an index out of range, numerically singular, or primal
    infeasible for this ``b``."""
    m, n = A.shape
    basis = np.array(basis, dtype=np.int64)
    if basis.shape != (m,) or not np.all((0 <= basis) & (basis < n + m)):
        return None
    body = np.hstack([A, np.eye(m), b[:, None]])
    B = body[:, basis]
    try:
        body = np.linalg.solve(B, body)
    except np.linalg.LinAlgError:
        return None
    # Round-off in B^-1 [A | I | b] grows with the condition number of B
    # (1-norm; B^-1 sits in the artificial columns).  Past tol/eps it could
    # carry an entry across the pivot tolerance; NaN fails this test too.
    condition = np.abs(B).sum(axis=0).max() * np.abs(body[:, n : n + m]).sum(axis=0).max()
    if not condition * np.finfo(np.float64).eps <= tol:
        return None
    if not np.all(body[:, -1] >= -tol):
        return None
    return body, basis


def solve_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tol: float = _PIVOT_TOL,
    max_iter: int | None = None,
    basis: np.ndarray | None = None,
) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0.

    Phase 1 starts from ``basis`` (column indices into ``[A | I]``, the
    artificial columns counted after the real ones) when that basis is
    nonsingular and primal feasible for this ``b``, and from the all-
    artificial basis otherwise.  The optimal basis of a neighbouring
    problem usually passes, and then phase 1 ends at its first check.

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
    if max_iter is None:
        max_iter = 200 + 50 * (m + n)

    # Phase 1 over [A | I | b] with every rhs made nonnegative first.
    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b[flip] *= -1.0

    tableau = np.zeros((m + 1, n + m + 1), dtype=np.float64)
    start = None if basis is None else _start_from_basis(A, b, basis, tol)
    if start is None:
        tableau[:m, :n] = A
        tableau[:m, n : n + m] = np.eye(m)
        tableau[:m, -1] = b
        # Reduced costs for the artificial objective with artificials basic.
        tableau[m, :n] = -A.sum(axis=0)
        tableau[m, -1] = -b.sum()
        basis = np.arange(n, n + m, dtype=np.int64)
    else:
        tableau[:m], basis = start
        artificial_cost = np.zeros(n + m + 1)
        artificial_cost[n : n + m] = 1.0
        tableau[m] = _cost_row(tableau, basis, artificial_cost)

    status, it1 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    phase1_obj = -tableau[m, -1]
    # Leftover phase-1 mass bounds the constraint residual of any reported
    # solution, so the feasibility cut sits well under the 1e-7 contract.
    if status == STATUS_OPTIMAL and phase1_obj > 100 * tol:
        status = STATUS_INFEASIBLE
    if status != STATUS_OPTIMAL:
        empty = np.zeros(n)
        return SimplexResult(status, empty, np.nan, np.zeros(m), it1, basis)

    # Pivot leftover artificials out where possible (first real column with
    # a usable entry); a row with no real pivot entry is a redundant
    # constraint and stays inert at zero.
    for i in np.flatnonzero(basis >= n):
        nz = np.flatnonzero(np.abs(tableau[i, :n]) > tol)
        if nz.size:
            q = nz[0]
            tableau[i] /= tableau[i, q]
            column = tableau[:, q]
            update = column != 0.0
            update[i] = False
            np.subtract(
                tableau, np.multiply.outer(column, tableau[i]), out=tableau, where=update[:, None]
            )
            basis[i] = q

    # Phase 2: rebuild the objective row for the real costs.
    real_cost = np.zeros(n + m + 1)
    real_cost[:n] = c
    tableau[m] = _cost_row(tableau, basis, real_cost)

    status, it2 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    x = np.zeros(n)
    real = basis < n
    x[basis[real]] = tableau[:m, -1][real]
    objective = float(-tableau[m, -1])
    # Reduced cost of artificial column e_i is -y_i; undo the rhs sign flips.
    dual = -tableau[m, n : n + m].copy()
    dual[flip] *= -1.0
    return SimplexResult(status, x, objective, dual, it1 + it2, basis)
