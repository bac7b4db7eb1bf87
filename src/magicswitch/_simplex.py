"""Dense two-phase tableau simplex with Bland's rule.

This is the embedded LP engine behind every robustness value.  Problems are
small (at most a few hundred columns and a few dozen rows) but are solved
thousands of times per parameter sweep, so the pivot loop is the package's
hot kernel: each pivot is a handful of whole-array numpy operations.

Bland's rule (smallest eligible index enters; ratio ties broken by smallest
basic variable index) makes the walk deterministic and cycle-free, so
repeated runs produce bit-identical solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2
STATUS_INFEASIBLE = 3

STATUS_NAMES = {
    STATUS_OPTIMAL: "optimal",
    STATUS_UNBOUNDED: "unbounded",
    STATUS_ITER_LIMIT: "iteration_limit",
    STATUS_INFEASIBLE: "infeasible",
}

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

    @property
    def status_name(self) -> str:
        return STATUS_NAMES[self.status]


def solve_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    tol: float = _PIVOT_TOL,
    max_iter: int | None = None,
) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0.

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
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    # Reduced costs for the artificial objective with artificials basic.
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = np.arange(n, n + m, dtype=np.int64)

    status, it1 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    phase1_obj = -tableau[m, -1]
    # Leftover phase-1 mass bounds the constraint residual of any reported
    # solution, so the feasibility cut sits well under the 1e-7 contract.
    if status == STATUS_OPTIMAL and phase1_obj > 100 * tol:
        status = STATUS_INFEASIBLE
    if status != STATUS_OPTIMAL:
        empty = np.zeros(n)
        return SimplexResult(status, empty, np.nan, np.zeros(m), it1)

    # Pivot leftover artificials out where possible; a row with no real
    # pivot entry is a redundant constraint and stays inert at zero.
    for i in range(m):
        if basis[i] >= n:
            row = tableau[i, :n]
            nz = np.nonzero(np.abs(row) > tol)[0]
            if nz.size:
                q = int(nz[0])
                piv = tableau[i, q]
                tableau[i, :] /= piv
                for k in range(m + 1):
                    if k != i and tableau[k, q] != 0.0:
                        tableau[k, :] -= tableau[k, q] * tableau[i, :]
                basis[i] = q

    # Phase 2: rebuild the objective row for the real costs.
    tableau[m, :] = 0.0
    tableau[m, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            tableau[m, :] -= c[basis[i]] * tableau[i, :]

    status, it2 = bland_pivot_loop(tableau, basis, n, tol, max_iter)
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    objective = float(-tableau[m, -1])
    # Reduced cost of artificial column e_i is -y_i; undo the rhs sign flips.
    dual = -tableau[m, n : n + m].copy()
    dual[flip] *= -1.0
    return SimplexResult(status, x, objective, dual, it1 + it2)
