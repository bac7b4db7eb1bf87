"""Dense two-phase tableau simplex with Bland's rule.

This is the embedded LP engine behind every robustness value.  Problems are
small (at most a few hundred columns and a few dozen rows) but are solved
thousands of times per parameter sweep, so the pivot loop is the package's
hot kernel: each pivot is a handful of whole-array numpy operations.

Bland's rule (smallest eligible index enters; ratio ties broken by smallest
basic variable index) makes the walk deterministic and cycle-free, so
repeated runs produce bit-identical solutions.

Every solve starts the same way: phase 1 runs from the tableau
``B^-1 [A | I | b]`` of a starting basis, with its phase-1 cost row.  A
cold solve starts from the all-artificial basis, B = I, which is the
classic two-phase start (Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, 1997, sec. 3.5).  A warm solve starts from a given basis,
such as the optimal basis of the same LP at a neighbouring parameter
value.  When that basis is primal feasible for the new right-hand side,
phase 1 ends at its first check, and since reduced costs do not depend on
``b``, a basis that was optimal for the neighbour is still optimal and
phase 2 ends there too.  When the basis is primal infeasible for the new
``b`` but still dual feasible for the real costs, as a neighbour's optimal
basis is, dual simplex pivots (``dual_pivot_loop``) first repair its
primal feasibility (sec. 4.5).  A basis that cannot start the solve, and a
repair that finds no entering column or runs past ``max_iter``, give way
to the all-artificial basis.  The optimal value does not depend on the
start beyond rounding; where an LP has several optimal vertices, ``x``
may.  Only a primal feasible solution is reported optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    right-hand side below -tol that holds the smallest basic variable, and
    the entering column, among columns < n_enterable with a row entry below
    -tol, the one with the smallest ratio of reduced cost to minus that
    entry (ties to the smallest index), which keeps every reduced cost
    nonnegative.  Returns (status, pivots): STATUS_OPTIMAL once every
    right-hand side is >= -tol, STATUS_INFEASIBLE when the leaving row has
    no entering column (no x >= 0 with zero artificials solves that row),
    STATUS_ITER_LIMIT after max_iter pivots.
    """
    m = tableau.shape[0] - 1
    reduced = tableau[m, :n_enterable]
    rhs = tableau[:m, -1]
    pivots = 0
    while True:
        rows = (rhs < -tol).nonzero()[0]
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


def _factor_basis(A, basis, rhs, tol):
    """``B^-1 [A | I | rhs]`` for the basis columns B of ``[A | I]``, or None
    when the basis has the wrong length, an index out of range, or is
    numerically singular or ill conditioned."""
    m, n = A.shape
    if basis.shape != (m,) or not np.all((0 <= basis) & (basis < n + m)):
        return None
    body = np.concatenate([A, np.eye(m), rhs], axis=1)
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
    return body


def _start_from_basis(A, b, cost, basis, tol, max_iter):
    """Primal feasible tableau body ``B^-1 [A | I | b]`` for a starting basis
    over the columns of ``[A | I]``, with the basis it ends on and the dual
    pivots it took; or None when the basis cannot start the solve:
    ``_factor_basis`` rejects it, or it is primal infeasible for this ``b``
    and not repaired.  The repair runs ``dual_pivot_loop`` when every
    reduced cost of the real columns under ``cost`` is >= -tol, and fails
    when the loop does not reach primal feasibility."""
    m, n = A.shape
    basis = np.array(basis, dtype=np.int64)
    body = _factor_basis(A, basis, b[:, None], tol)
    if body is None:
        return None
    if (body[:, -1] >= -tol).all():
        return body, basis, 0
    tableau = np.vstack([body, _cost_row(body, basis, cost)])
    if np.any(tableau[m, :n] < -tol):
        return None
    status, pivots = dual_pivot_loop(tableau, basis, n, tol, max_iter)
    if status != STATUS_OPTIMAL:
        return None
    return tableau[:m], basis, pivots


def solve_standard_form(
    A: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    max_iter: int | None = None,
    basis: np.ndarray | None = None,
) -> SimplexResult:
    """Minimize c.x subject to A x = b, x >= 0.

    Phase 1 starts from ``basis`` (column indices into ``[A | I]``, the
    artificial columns counted after the real ones) when
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
    if max_iter is None:
        max_iter = 200 + 50 * (m + n)

    # Phase 1 over [A | I | b] with every rhs made nonnegative first, so
    # the all-artificial basis is always a primal feasible start.
    flip = b < 0
    A = A.copy()
    A[flip] *= -1.0
    b[flip] *= -1.0

    real_cost = np.zeros(n + m + 1)
    real_cost[:n] = c
    start = None if basis is None else _start_from_basis(A, b, real_cost, basis, tol, max_iter)
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
        return SimplexResult(status, np.zeros(n), np.nan, np.zeros(m), it0 + it1, basis)

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
        return SimplexResult(STATUS_INFEASIBLE, np.zeros(n), np.nan, np.zeros(m), iterations, basis)
    objective = float(-tableau[m, -1])
    # Reduced cost of artificial column e_i is -y_i; undo the rhs sign flips.
    dual = -tableau[m, n : n + m].copy()
    dual[flip] *= -1.0
    return SimplexResult(status, x, objective, dual, iterations, basis)


# ---------------------------------------------------------------------------
# Parametric right-hand side
# ---------------------------------------------------------------------------

# Polynomials are coefficient arrays along axis 0, lowest degree first, of
# degree at most RHS_DEGREE; the walk finds their roots in closed form, so
# the degree stays 2.
RHS_DEGREE = 2

# The most LP solves one walk may make before it gives up.
_MAX_WALK_SOLVES = 8


def polyval(coeffs, t):
    """Value at ``t`` of the polynomials whose coefficients run along axis 0."""
    value = coeffs[-1]
    for coeff in coeffs[-2::-1]:
        value = value * t + coeff
    return value


def fit_polynomial(points, values, tol):
    """Coefficients of the polynomials of degree ``RHS_DEGREE`` through the
    first ``RHS_DEGREE + 1`` of ``points`` (``values`` holds one row per
    point), or None unless they also reproduce every further point to within
    ``tol`` times the largest value there."""
    points = np.asarray(points, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    k = RHS_DEGREE + 1
    try:
        coeffs = np.linalg.solve(np.vander(points[:k], k, increasing=True), values[:k])
    except np.linalg.LinAlgError:
        return None
    check = np.vander(points[k:], k, increasing=True) @ coeffs - values[k:]
    if not np.abs(check).max(initial=0.0) <= tol * max(1.0, np.abs(values[k:]).max(initial=0.0)):
        return None
    return coeffs


def _quadratic_roots(coeffs):
    """Real roots of the quadratics whose (3, k) ``coeffs`` run along axis 0,
    as a (2, k) array (a pair for a single quadratic) with NaN where a root
    does not exist.  The product form keeps the small root accurate when
    the leading term vanishes."""
    c0, c1, c2 = coeffs
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        roots = np.array([q / c2, c0 / q])
    return np.where(np.isfinite(roots), roots, np.nan)


def _distance_ahead(roots, t, stop):
    """Distance from ``t`` of each of ``roots`` on the closed stretch from
    ``t`` to ``stop``; inf for the others and for NaN."""
    distance = np.abs(roots - t)
    return np.where(((roots - t) * (stop - t) >= 0) & (distance <= abs(stop - t)), distance, np.inf)


def parametric_crossing(A, c, rhs, scale, level, basis, t, stop):
    """Where the optimal value of min c.x s.t. A x = b(t), x >= 0 first
    crosses ``level`` on the way from ``t`` to ``stop``.

    The right-hand side is b(t) = rhs(t) / scale(t) for polynomials ``rhs``
    (one column per row of A) and ``scale`` (positive on the way), and
    ``basis`` is an optimal basis at ``t`` as ``solve_standard_form``
    returns it.  Reduced costs do not depend on b, so the basis stays
    optimal while B^-1 b(t) >= -tol (the pivot tolerance
    ``DEFAULT_TOL.pivot``), and there the optimal value crosses
    ``level`` at a root of c_B B^-1 rhs(t) - level scale(t).  When that
    root lies past the end of the interval, a solve just past the end
    starts from the basis, which is primal infeasible there but still dual
    feasible, so the solve's dual simplex pivots repair it into the next
    optimal basis; the walk repeats from the basis that solve returns.

    Returns (crossing or None, LP solves).  None means no crossing up to
    ``stop``, or a failed walk: a singular or ill-conditioned basis, a
    nonpositive scale, a step LP that is not solved to optimality (an
    infeasible one went past the end of the LP's feasible range), or more
    than ``_MAX_WALK_SOLVES`` solves.
    """
    m, n = A.shape
    tol = DEFAULT_TOL.pivot
    cost = np.concatenate([c, np.zeros(m)])
    start_free = None
    for solves in range(_MAX_WALK_SOLVES + 1):
        s = polyval(scale, t)
        if not s > 0:
            return None, solves
        if solves:
            result = solve_standard_form(A, polyval(rhs, t) / s, c, basis=basis)
            if result.status != STATUS_OPTIMAL:
                return None, solves
            basis = result.basis
        # solve_standard_form flips rows with b < 0, which changes the sign
        # of an artificial column.  One stays basic only on a redundant row,
        # which the drive-out could not pivot on, and its value stays zero
        # there, so its sign does not matter.
        body = _factor_basis(A, basis, rhs.T, tol)
        if body is None:
            return None, solves
        x = body[:, n + m :]  # row i: the coefficients of scale(t) x_B[i](t)
        gap = cost[basis] @ x - level * scale  # scale(t) (value(t) - level)
        free = polyval(gap, t) <= 0
        if start_free is None:
            start_free = free
        elif free != start_free:
            return float(t), solves  # the crossing lies in the step past the last interval
        walls = _quadratic_roots(x.T + tol * scale[:, None])
        ahead = _distance_ahead(walls, t, stop)
        ahead[ahead == 0] = np.inf
        wall = ahead.argmin()  # into the flattened (2, m) roots
        end = stop if ahead.flat[wall] == np.inf else walls.flat[wall]
        roots = _quadratic_roots(gap)
        ahead = _distance_ahead(roots, t, end)
        if ahead.min() < np.inf:
            return float(roots[ahead.argmin()]), solves
        if end == stop:
            return None, solves
        # Past the end by the tolerance again, every variable that reached
        # its bound there is infeasible for this basis, which stays dual
        # feasible; the step solve starts from it and its dual simplex
        # pivots make the basis change, several at a degenerate breakpoint.
        t = min(end + tol, stop) if stop > t else max(end - tol, stop)
    return None, _MAX_WALK_SOLVES
