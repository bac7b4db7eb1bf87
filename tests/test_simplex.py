import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicswitch import _simplex, channel_robustness, noisy_th_channel, unitary_channel
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import HADAMARD, T_GATE
from magicswitch.lp import solve_l1
from magicswitch._simplex import (
    STATUS_INFEASIBLE,
    STATUS_ITER_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    WarmStart,
    bland_pivot_loop,
    dual_pivot_loop,
    optimal_start,
    solve_standard_form,
)

from conftest import fig2_fig3_channels, pivots_by_caller, spy

try:
    from scipy.optimize import linprog as HIGHS
except ImportError:  # the HiGHS cross-check needs scipy
    HIGHS = None


def brute_force_optimum(A, b, c, tol=1e-9):
    """Independent oracle: enumerate every basis subset, keep the best
    feasible basic solution.  Exponential, for tiny instances only."""
    m, n = A.shape
    best = None
    for cols in itertools.combinations(range(n), m):
        sub = A[:, cols]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_b = np.linalg.solve(sub, b)
        if x_b.min() < -tol:
            continue
        value = c[list(cols)] @ x_b
        if best is None or value < best:
            best = value
    return best


def test_trivial_equality():
    res = solve_standard_form(np.array([[1.0, 1.0]]), np.array([1.0]), np.array([1.0, 1.0]))
    assert res.status == STATUS_OPTIMAL
    assert abs(res.objective - 1.0) < 1e-12


def test_known_solution():
    # min x1 + 2 x2 + 3 x3  s.t.  x1 + x2 = 2, x2 + x3 = 1.
    # On the feasible segment x = (2-t, t, 1-t), t in [0,1], the objective
    # is 5 - 2t, so the optimum sits at x = (1, 1, 0) with value 3.
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([2.0, 1.0])
    c = np.array([1.0, 2.0, 3.0])
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert np.allclose(res.x, [1.0, 1.0, 0.0], atol=1e-10)
    assert abs(res.objective - 3.0) < 1e-10


def test_negative_rhs_handled():
    # Same program written with a flipped row sign.
    A = np.array([[-1.0, -1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([-2.0, 1.0])
    c = np.array([1.0, 2.0, 3.0])
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert abs(res.objective - 3.0) < 1e-10


def test_infeasible():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    res = solve_standard_form(A, b, np.ones(2))
    assert res.status == STATUS_INFEASIBLE


def test_slightly_infeasible_lp_is_infeasible():
    # x1 + x2 = -3e-8 has no x >= 0.  Its artificial starts at -3e-8, past
    # Tolerances.primal, and the cold repair finds no negative entry to
    # drive it out on: the LP is infeasible.
    res = solve_standard_form(np.array([[1.0, 1.0]]), np.array([-3e-8]), np.array([1.0, 2.0]))
    assert res.status == STATUS_INFEASIBLE
    assert np.isnan(res.objective) and np.isnan(res.x).all() and np.isnan(res.dual).all()


def test_rejects_malformed_data():
    A = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError, match="shapes"):
        solve_standard_form(A, np.array([1.0, 2.0]), np.ones(2))
    with pytest.raises(ValueError, match="not finite"):
        solve_standard_form(A, np.array([np.nan]), np.ones(2))


def test_refuses_a_negative_cost():
    # Costs c >= 0 keep the all-artificial basis dual feasible; a zero cost
    # is one of them.
    A = np.array([[1.0, 1.0]])
    assert solve_standard_form(A, np.array([1.0]), np.array([0.0, 1.0])).objective == 0.0
    for c in ([-1.0, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_standard_form(A, np.array([1.0]), np.array(c))


def test_redundant_row():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_standard_form(A, b, np.array([1.0, 3.0]))
    assert res.status == STATUS_OPTIMAL
    assert abs(res.objective - 1.0) < 1e-10


@pytest.mark.parametrize("defect, status", [(1e-13, STATUS_OPTIMAL), (-1e-13, STATUS_OPTIMAL),
                                            (1e-10, STATUS_INFEASIBLE), (-1e-10, STATUS_INFEASIBLE),
                                            (1e-3, STATUS_INFEASIBLE), (-1e-3, STATUS_INFEASIBLE)])
def test_redundant_row_off_by_a_defect_is_judged_at_primal(defect, status):
    # Row 1 is the farther past its bound at equal weights, so it leaves
    # first; then row 0's artificial sits at minus half the defect, on a row
    # with no real entry, which no dual pivot moves, above or below 0.  The
    # dual repair judges it like any basic variable, at Tolerances.primal.
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    res = solve_standard_form(A, np.array([1.0, 2.0 + defect]), np.array([1.0, 3.0]))
    assert res.status == status
    if status == STATUS_OPTIMAL:
        assert abs(res.objective - 1.0) < 1e-9 and np.array_equal(res.warm_start.basis < 2, [False, True])


def test_degenerate_vertex():
    # b = 0 forces zero-ratio pivots; Bland's rule must still terminate.
    A = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, -1.0]])
    b = np.array([0.0, 0.0])
    c = np.array([1.0, 1.0, 1.0])
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_OPTIMAL
    assert abs(res.objective) < 1e-12


def test_matches_brute_force_on_random_instances(rng):
    for trial in range(40):
        m = rng.integers(1, 4)
        n = rng.integers(m + 1, 8)
        A = rng.normal(size=(m, n))
        x_feas = np.abs(rng.normal(size=n))
        b = A @ x_feas
        c = np.abs(rng.normal(size=n))  # nonnegative cost keeps it bounded
        res = solve_standard_form(A, b, c)
        assert res.status == STATUS_OPTIMAL, f"trial {trial}"
        expected = brute_force_optimum(A, b, c)
        assert expected is not None
        assert abs(res.objective - expected) < 1e-7, f"trial {trial}"
        assert np.abs(A @ res.x - b).max() < 1e-8


def test_dual_certificate(rng):
    for _ in range(20):
        m, n = 3, 7
        A = rng.normal(size=(m, n))
        b = A @ np.abs(rng.normal(size=n))
        c = np.abs(rng.normal(size=n))
        res = solve_standard_form(A, b, c)
        assert res.status == STATUS_OPTIMAL
        # Zero gap and dual feasibility c - A^T y >= 0.
        assert abs(res.objective - res.dual @ b) < 1e-8
        assert (c - A.T @ res.dual).min() > -1e-8


def test_optimal_start_is_an_optimal_basis_with_no_bland_loop(monkeypatch, rng):
    # The cold dual repair alone: no Bland loop runs, and the basis it ends
    # on is primal and dual feasible, at the optimal value, with its exact
    # inverse, read-only.  An infeasible program has none.
    monkeypatch.setattr(_simplex, "bland_pivot_loop", None)
    for _ in range(20):
        m, n = 3, 7
        A = rng.normal(size=(m, n))
        b = A @ np.abs(rng.normal(size=n))
        c = np.abs(rng.normal(size=n))
        start = optimal_start(A, b, c)
        body = np.hstack([A, np.eye(m)])[:, start.basis]
        assert np.abs(start.inverse @ body - np.eye(m)).max() < 1e-9
        x_B = start.inverse @ b
        c_B = np.concatenate([c, np.zeros(m)])[start.basis]
        assert np.where(start.basis < n, -x_B, np.abs(x_B)).max() <= DEFAULT_TOL.primal
        assert (c - c_B @ start.inverse @ A).min() >= -DEFAULT_TOL.pivot
        assert abs(c_B @ x_B - brute_force_optimum(A, b, c)) < 1e-7
        assert not (start.basis.flags.writeable or start.inverse.flags.writeable)
    assert optimal_start(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]), np.ones(2)) is None


def test_deterministic(rng):
    A = rng.normal(size=(3, 9))
    b = A @ np.abs(rng.normal(size=9))
    c = np.abs(rng.normal(size=9))
    first = solve_standard_form(A, b, c)
    second = solve_standard_form(A, b, c)
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)
    assert first.iterations == second.iterations


def reference_pivot_loop(tableau, basis, n_enterable, tol, max_iter):
    """Row-by-row Bland pivot loop: the scalar form the vectorized kernel
    must reproduce bit for bit (same pivots, basis and tableau)."""
    m = tableau.shape[0] - 1
    it = 0
    while it < max_iter:
        it += 1
        # Entering column: first index with a negative reduced cost.
        q = -1
        for j in range(n_enterable):
            if tableau[m, j] < -tol:
                q = j
                break
        if q == -1:
            return 0, it
        # Leaving row: minimum ratio, ties to the smallest basic variable.
        best_ratio = np.inf
        r = -1
        best_var = np.int64(2**62)
        for i in range(m):
            a = tableau[i, q]
            if a > tol:
                ratio = tableau[i, -1] / a
                if ratio < best_ratio or (ratio == best_ratio and basis[i] < best_var):
                    best_ratio = ratio
                    r = i
                    best_var = basis[i]
        if r == -1:
            return 1, it
        piv = tableau[r, q]
        tableau[r, :] /= piv
        for i in range(m + 1):
            if i != r:
                f = tableau[i, q]
                if f != 0.0:
                    tableau[i, :] -= f * tableau[r, :]
        basis[r] = q
    return 2, it


def phase1_tableau(A, b):
    """The classic phase-1 start, in the layout of ``bland_pivot_loop``: the
    rows with b < 0 negated, B = I over the artificial columns, and the
    reduced costs of the sum of the artificials last.  A long Bland walk for
    the kernel tests.  Returns (tableau, basis)."""
    m, n = A.shape
    signs = np.where(b < 0, -1.0, 1.0)[:, None]
    body = np.hstack([signs * A, np.eye(m), signs * b[:, None]])
    cost = np.concatenate([np.zeros(n), np.ones(m), [0.0]])
    return np.vstack([body, cost - body.sum(axis=0)]), np.arange(n, n + m)


def set_costs(tableau, basis, c):
    """Put the reduced costs of the real costs ``c`` in the last row, in
    place: the phase-2 objective of a walked phase-1 tableau."""
    m = len(basis)
    cost = np.concatenate([c, np.zeros(tableau.shape[1] - len(c))])
    tableau[m] = cost - cost[basis] @ tableau[:m]


def assert_same_walk(tableau, basis, n_enterable, tol, max_iter):
    """Walk ``tableau`` and ``basis`` in place with the kernel, and check the
    reference gets the same walk from a copy.  Returns (status, iterations)."""
    t_ref, b_ref = tableau.copy(), basis.copy()
    expected = reference_pivot_loop(t_ref, b_ref, n_enterable, tol, max_iter)
    assert bland_pivot_loop(tableau, basis, n_enterable, tol, max_iter) == expected
    assert np.array_equal(basis, b_ref)
    # Bit for bit, signed zeros included.
    assert tableau.tobytes() == t_ref.tobytes()
    return expected


def test_ratio_tie_goes_to_smallest_basic_variable():
    # Column 0 enters; rows 0 and 1 tie at ratio 1, and the later row holds
    # the smaller basic variable, so it must leave.
    tableau = np.array([
        [1.0, 1.0, 0.0, 1.0],
        [2.0, 0.0, 1.0, 2.0],
        [-1.0, 0.0, 0.0, 0.0],
    ])
    basis = np.array([2, 1], dtype=np.int64)
    assert_same_walk(tableau, basis, 1, 1e-9, 10)
    assert basis.tolist() == [2, 0]


def test_kernel_matches_reference_on_integer_lps(rng):
    # Phase 1, then phase 2 under costs that may be negative.  Small
    # integers make exact ratio ties, and so the smallest-basic-index
    # tie-break, common; negative costs make some programs unbounded.
    statuses = set()
    for _ in range(60):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 10))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = A @ rng.integers(0, 3, size=n)
        c = rng.integers(-1, 4, size=n).astype(float)
        tableau, basis = phase1_tableau(A, b)
        assert assert_same_walk(tableau, basis, n, DEFAULT_TOL.pivot, 100)[0] == STATUS_OPTIMAL
        set_costs(tableau, basis, c)
        statuses.add(assert_same_walk(tableau, basis, n, DEFAULT_TOL.pivot, 100)[0])
    assert statuses == {STATUS_OPTIMAL, STATUS_UNBOUNDED}


def test_kernel_matches_reference_when_unbounded():
    # x0 never appears in a constraint and has negative cost.
    tableau, basis = phase1_tableau(np.array([[0.0, 1.0]]), np.array([1.0]))
    assert assert_same_walk(tableau, basis, 2, DEFAULT_TOL.pivot, 10) == (STATUS_OPTIMAL, 2)
    set_costs(tableau, basis, np.array([-1.0, 0.0]))
    assert assert_same_walk(tableau, basis, 2, DEFAULT_TOL.pivot, 10) == (STATUS_UNBOUNDED, 1)


def test_kernel_matches_reference_with_no_enterable_column():
    tableau = np.array([[1.0, 1.0], [-1.0, -1.0]])
    basis = np.array([0], dtype=np.int64)
    assert assert_same_walk(tableau, basis, 0, 1e-9, 10) == (STATUS_OPTIMAL, 1)


def test_kernel_matches_reference_on_channel_lps(choi_atoms):
    # The fig2/fig3 channel LPs from the classic start: phase 1 walks tens
    # of pivots over the exact stabilizer atoms, then phase 2 at unit costs.
    for ch in fig2_fig3_channels():
        A, b = channel_robustness(ch, choi_atoms).standard_form
        m, n = A.shape
        tableau, basis = phase1_tableau(A, b)
        status, iterations = assert_same_walk(tableau, basis, n, DEFAULT_TOL.pivot, 10_000)
        assert status == STATUS_OPTIMAL and iterations > m
        set_costs(tableau, basis, np.ones(n))
        assert assert_same_walk(tableau, basis, n, DEFAULT_TOL.pivot, 10_000)[0] == STATUS_OPTIMAL


def test_kernel_matches_reference_at_iteration_limit(choi_atoms):
    A, b = channel_robustness(noisy_th_channel(0.2), choi_atoms).standard_form
    tableau, basis = phase1_tableau(A, b)
    assert assert_same_walk(tableau, basis, A.shape[1], DEFAULT_TOL.pivot, 3) == (STATUS_ITER_LIMIT, 3)


def hand_built_start(A, basis):
    """A ``WarmStart`` of ``basis``, column indices into ``[A | I]``, with its
    inverse from ``np.linalg.inv``."""
    basis = np.array(basis)
    return WarmStart(basis, np.linalg.inv(np.hstack([A, np.eye(A.shape[0])])[:, basis]))


def test_warm_start_runs_no_pivot_loop(monkeypatch, choi_atoms):
    # The optimal basis at one grid point stays feasible at the next, so its
    # WarmStart gives the solution from one mat-vec, with no pivot and the
    # same inverse.
    for p, step in ((0.1, 0.01), (0.5, 0.01), (0.9, -0.01)):
        start = channel_robustness(noisy_th_channel(p), choi_atoms).warm_start
        A, b = channel_robustness(noisy_th_channel(p + step), choi_atoms).standard_form
        held = _simplex.Starts(A, np.ones(A.shape[1]), (start,))
        warm, pivots = pivots_by_caller(monkeypatch, lambda: solve_l1(A, b, held))
        cold, cold_pivots = pivots_by_caller(monkeypatch, lambda: solve_l1(*warm.standard_form))
        assert not pivots and warm.iterations == 0 and warm.warm_start is start
        # The cold solve pivots by dual simplex only; its two Bland loops
        # confirm the repaired tableau in one iteration each.
        assert set(cold_pivots) == {"dual_pivot_loop"} and cold.iterations == cold_pivots["dual_pivot_loop"] + 2
        assert warm.status == "optimal" and abs(warm.value - cold.value) < 1e-12


def test_start_basis_holding_a_positive_artificial_serves_nothing(monkeypatch):
    # x0 + x1 = 1, x1 + x2 = 1.  The basis {x0, artificial of row 1} is
    # nonsingular and dual feasible, but its artificial sits at 1, so no
    # solution is read off it.  The cold repair drives out both
    # artificials, each at 1 (x0 enters, then x2, each at ratio 1 against
    # x1's 3), and phase 1 has nothing left.
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 3.0, 1.0])
    starts, served, *_ = _simplex.reuse_basis(A, b[None], _simplex.Starts(A, c, (hand_built_start(A, [0, 4]),)))
    assert starts == [None] and not served.any()
    cold, pivots = pivots_by_caller(monkeypatch, lambda: solve_standard_form(A, b, c))
    # Two dual pivots, and no Bland-loop pivot: each loop confirms in one iteration.
    assert pivots == {"dual_pivot_loop": 2} and cold.iterations == 4
    assert cold.status == STATUS_OPTIMAL and cold.objective == 2.0 and cold.warm_start.basis.tolist() == [0, 2]
    assert np.array_equal(cold.x, [1.0, 0.0, 1.0])


def test_optimal_basis_past_its_feasible_range_serves_nothing(monkeypatch):
    # x0 - x1 = b: the basis {x0} is optimal for b = 1 and puts x0 at -1 for
    # b = -1.  Its reduced costs do not depend on b, so it stays dual
    # feasible, but nothing is read off a primal infeasible basis: b = -1
    # solves cold, and one dual pivot brings x1 in.
    A = np.array([[1.0, -1.0]])
    c = np.array([1.0, 2.0])
    start = solve_standard_form(A, np.array([1.0]), c).warm_start
    assert start.basis.tolist() == [0]
    held = _simplex.Starts(A, c, (start,))
    starts, served, x, objective, *_ = _simplex.reuse_basis(A, np.array([[1.0], [-1.0]]), held)
    assert starts[0] is start and starts[1] is None and served.tolist() == [True, False]
    assert x.tolist() == [[1.0, 0.0], [0.0, 0.0]] and objective.tolist() == [1.0, 0.0]
    cold, pivots = pivots_by_caller(monkeypatch, lambda: solve_standard_form(A, np.array([-1.0]), c))
    assert pivots == {"dual_pivot_loop": 1} and cold.warm_start.basis.tolist() == [1]
    assert (cold.status, cold.objective) == (STATUS_OPTIMAL, 2.0) and cold.x.tolist() == [0.0, 1.0]


def test_start_off_dual_feasibility_fails_the_check():
    # 2 x0 + x1 - 2 x2 - x3 = 1, a program of solve_l1's plus/minus form.
    # The basis {x1} puts x1 at 1, primal feasible, so the entry is read off
    # it at value 1.  But its y = 1 prices x0 at 2, past x0's cost 1: the
    # basis is not optimal (x0 = 1/2 is, at value 1/2).  A read is never
    # repaired; its dual check reports the excess, and the entry fails it.
    A = np.array([[2.0, 1.0, -2.0, -1.0]])
    b = np.array([1.0])
    start = hand_built_start(A, [1])
    read = solve_l1(A, b, _simplex.Starts(A, np.ones(4), (start,)))
    assert read.warm_start is start and read.iterations == 0
    assert (read.value, read.residual, read.dual_gap, read.dual_violation) == (1.0, 0.0, 0.0, 1.0)
    assert read.status == "check_failed"
    cold = solve_l1(A, b)
    assert cold.status == "optimal" and (cold.value, cold.dual_violation) == (0.5, 0.0)
    assert cold.plus.tolist() == [0.5, 0.0] and cold.warm_start.basis.tolist() == [0]


def test_near_parallel_columns_solve_cold_to_the_optimum():
    # Columns 0 and 1 are parallel up to 1e-13, so the feasible basis
    # {0, 1, 2, 3}, at b = A (1, 1, 1, 1, 0, 0), is ill-conditioned.  The
    # cold solve reaches the optimum, 4, and its own start reads b back off
    # with no pivot, to the same x and value.
    c0 = np.array([1.0, 2.0, 3.0, 4.0])
    c1 = c0 + 1e-13 * np.array([1.0, -1.0, 2.0, 0.5])
    A = np.column_stack([c0, c1, [0, 1, 0, 2], [3, 0, 1, 1], [1, 1, 1, 1], [2, 0, 0, 1]])
    b = A[:, :4] @ np.ones(4)
    c = np.ones(6)
    cold = solve_standard_form(A, b, c)
    assert cold.status == STATUS_OPTIMAL and abs(cold.objective - 4.0) <= 1e-9
    assert np.abs(A @ cold.x - b).max() <= 1e-12 and cold.x.min() >= -DEFAULT_TOL.primal
    starts, served, x, objective, *_ = _simplex.reuse_basis(A, b[None], _simplex.Starts(A, c, (cold.warm_start,)))
    assert starts[0] is cold.warm_start and served[0]
    assert np.abs(x[0] - cold.x).max() <= 1e-12 and abs(objective[0] - cold.objective) <= 1e-12
    if HIGHS is not None:
        highs = HIGHS(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert highs.status == 0 and abs(highs.fun - cold.objective) <= 1e-9


def random_resolve(seed, feasible):
    """A random bounded LP (A, c) with two right-hand sides: b1, which is
    feasible, and b2, which is feasible too when ``feasible`` and otherwise
    random, so that it can make the whole LP infeasible.  Positive costs
    keep every LP bounded, so its optimal basis at b1 is dual feasible at
    b2."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, 10))
    A = rng.normal(size=(m, n))
    c = rng.uniform(0.1, 2.0, size=n)
    b1 = A @ rng.uniform(0.0, 1.0, size=n)
    b2 = A @ rng.uniform(0.0, 1.0, size=n) if feasible else rng.normal(size=m)
    return A, c, b1, b2


def assert_warm_start_matches_the_oracle(A, b, c, start):
    """Read ``b`` off the WarmStart ``start`` and solve it cold, and check
    both against an oracle that shares no code with the solver.  x_B comes
    from ``np.linalg.solve`` of the basis columns of ``[A | I]``.  When it
    is feasible (each artificial within ``Tolerances.primal`` of 0),
    ``reuse_basis`` must serve ``b`` with that vertex, x within 1e-12 of it
    and the objective c.x, which the cold solve must reach too; otherwise
    ``reuse_basis`` serves nothing.  Any optimal answer must satisfy A x =
    b with x >= -tol, and where scipy is present its status and value must
    be HiGHS's.  Returns (served, the cold result)."""
    m, n = A.shape
    tol = DEFAULT_TOL.pivot
    starts, served, reused, objective, _, _ = _simplex.reuse_basis(A, b[None], _simplex.Starts(A, c, (start,)))
    served = int(served[0])
    got = solve_standard_form(A, b, c)
    x_B = np.linalg.solve(np.hstack([A, np.eye(m)])[:, start.basis], b)
    real = start.basis < n
    if (x_B[real] >= -tol).all() and (np.abs(x_B[~real]) <= DEFAULT_TOL.primal).all():
        assert served == 1 and starts[0] is start
        x = np.zeros(n)
        x[start.basis[real]] = x_B[real]
        assert np.abs(reused[0] - x).max() <= 1e-12
        assert abs(objective[0] - c @ x) <= 1e-12 * max(1.0, abs(c @ x))
        assert got.status == STATUS_OPTIMAL and abs(got.objective - objective[0]) <= 1e-9 * max(1.0, abs(c @ x))
    else:
        assert served == 0 and starts == [None] and not reused.any() and objective[0] == 0.0
    if got.status == STATUS_OPTIMAL:
        assert np.abs(A @ got.x - b).max() <= 1e-8 and got.x.min() >= -tol
        assert abs(got.objective - c @ got.x) <= 1e-12 * max(1.0, abs(got.objective))
    if HIGHS is not None:
        highs = HIGHS(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert highs.status == {STATUS_OPTIMAL: 0, STATUS_INFEASIBLE: 2}[got.status]
        if highs.status == 0:
            assert abs(highs.fun - got.objective) <= 1e-7 * max(1.0, abs(got.objective))
    return served, got


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), feasible=st.booleans())
def test_warm_start_matches_an_independent_oracle(seed, feasible):
    A, c, b1, b2 = random_resolve(seed, feasible)
    start = solve_standard_form(A, b1, c).warm_start
    assert_warm_start_matches_the_oracle(A, b2, c, start)


def test_warm_start_holds_across_a_change_of_sign_pattern():
    # min x0 + x1 + 5 x2 s.t. x0 - x1 + x2 = b0, x1 + x2 = b1: the basis
    # {x0, x1} is optimal for b = (1, 1) and for b = (-0.5, 1), where b0
    # changes sign.  Each WarmStart serves the other b.
    A = np.array([[1.0, -1.0, 1.0], [0.0, 1.0, 1.0]])
    c = np.array([1.0, 1.0, 5.0])
    for b1, b2 in [([1.0, 1.0], [-0.5, 1.0]), ([-0.5, 1.0], [1.0, 1.0])]:
        start = solve_standard_form(A, np.array(b1), c).warm_start
        assert sorted(start.basis) == [0, 1]
        assert np.allclose(start.inverse, np.linalg.inv(A[:, start.basis]), rtol=0, atol=1e-15)
        served, got = assert_warm_start_matches_the_oracle(A, np.array(b2), c, start)
        assert served == 1 and sorted(got.warm_start.basis) == [0, 1]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_warm_start_with_a_basic_artificial_on_a_redundant_row(sign):
    # Row 2 is +-(row 0 + row 1), so one row is redundant: the repair pivots
    # rows 2 and 1, and row 0's artificial (column 3) stays basic at zero; a
    # consistent b reuses the basis, and an inconsistent one makes the LP
    # infeasible.
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [sign, 2 * sign, sign]])
    c = np.array([1.0, 3.0, 1.0])
    start = solve_standard_form(A, A @ np.array([1.0, 0.0, 2.0]), c).warm_start
    assert start.basis.tolist().count(3) == 1 and (start.basis >= 3).sum() == 1
    b = A @ np.array([0.5, 0.0, 0.25])
    served, got = assert_warm_start_matches_the_oracle(A, b, c, start)
    assert served == 1 and got.objective == 0.75
    b[2] += 1e-3
    served, got = assert_warm_start_matches_the_oracle(A, b, c, start)
    assert served == 0 and got.status == STATUS_INFEASIBLE


def test_warm_start_at_an_infeasible_rhs_is_infeasible():
    # x1 + x2 = -1 has no x >= 0: the basis puts both at -1, so it serves
    # nothing, and the cold repair finds no entering column.
    A = np.array([[1.0, -1.0, 1.0], [0.0, 1.0, 1.0]])
    c = np.array([1.0, 1.0, 5.0])
    start = solve_standard_form(A, np.array([1.0, 1.0]), c).warm_start
    served, got = assert_warm_start_matches_the_oracle(A, np.array([0.0, -1.0]), c, start)
    assert served == 0 and got.status == STATUS_INFEASIBLE and got.warm_start is None


def reference_phase2_start(tableau, basis, c, tol):
    """The row-by-row set-up between the phases that ``solve_standard_form``
    replaced with array operations: drive leftover artificials out of the
    basis, then rebuild the objective row for the real costs.  Returns the
    number of artificials driven out."""
    m = tableau.shape[0] - 1
    n = c.size
    driven = 0
    for i in range(m):
        if basis[i] >= n:
            nz = np.nonzero(np.abs(tableau[i, :n]) > tol)[0]
            if nz.size:
                q = int(nz[0])
                tableau[i, :] /= tableau[i, q]
                for k in range(m + 1):
                    if k != i and tableau[k, q] != 0.0:
                        tableau[k, :] -= tableau[k, q] * tableau[i, :]
                basis[i] = q
                driven += 1
    tableau[m, :] = 0.0
    tableau[m, :n] = c
    for i in range(m):
        if basis[i] < n and c[basis[i]] != 0.0:
            tableau[m, :] -= c[basis[i]] * tableau[i, :]
    return driven


def test_phase2_set_up_matches_row_loop(monkeypatch, rng):
    # Sparse integer solutions make degenerate LPs, whose artificials at
    # zero the dual repair drives out on entries of either sign: after it,
    # the row loop finds none to drive out, and the phase-2 row matches.
    driven = 0
    for _ in range(60):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 10))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = A @ (rng.integers(0, 3, size=n) * (rng.random(n) < 0.3))
        c = rng.integers(0, 4, size=n).astype(float)
        loops = []

        def recorder(tableau, basis, n_enterable, tol, max_iter):
            before = (tableau.copy(), basis.copy())
            out = bland_pivot_loop(tableau, basis, n_enterable, tol, max_iter)
            loops.append((before, (tableau.copy(), basis.copy())))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(_simplex, "bland_pivot_loop", recorder)
            result = solve_standard_form(A, b, c)
        if result.status != STATUS_OPTIMAL:
            continue
        (_, (want, want_basis)), ((got, got_basis), _) = loops
        driven += reference_phase2_start(want, want_basis, c, DEFAULT_TOL.pivot)
        assert np.array_equal(got_basis, want_basis)
        # The objective row is one matrix product, so it agrees to rounding.
        assert got[:m].tobytes() == want[:m].tobytes()
        assert np.allclose(got[m], want[m], rtol=1e-12, atol=1e-12)
    assert driven == 0


@pytest.mark.skipif(HIGHS is None, reason="the HiGHS oracle needs scipy")
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    feasible=st.booleans(),
    redundant=st.integers(0, 2),
    integer=st.booleans(),
)
def test_dual_cold_start_matches_highs(seed, feasible, redundant, integer):
    # Nonnegative costs make the all-artificial basis dual feasible.  Small
    # integers make degenerate vertices and zero costs common; redundant
    # rows are sums of earlier rows, with their b summed too.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, 10))
    if integer:
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        c = rng.integers(0, 3, size=n).astype(float)
        x = rng.integers(0, 3, size=n) * (rng.random(n) < 0.5)
    else:
        A = rng.normal(size=(m, n))
        c = rng.uniform(0.0, 2.0, size=n)
        x = rng.uniform(0.0, 1.0, size=n)
    b = A @ x if feasible else rng.normal(size=m)
    for _ in range(redundant):
        weights = rng.integers(-2, 3, size=len(A)).astype(float)
        A, b = np.vstack([A, weights @ A]), np.append(b, weights @ b)
    dual = solve_standard_form(A, b, c)
    highs = HIGHS(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert highs.status == {STATUS_OPTIMAL: 0, STATUS_INFEASIBLE: 2}[dual.status]
    if feasible:
        assert dual.status == STATUS_OPTIMAL
    if dual.status == STATUS_OPTIMAL:
        scale = max(1.0, abs(dual.objective))
        assert abs(highs.fun - dual.objective) <= 1e-9 * scale
        assert np.abs(A @ dual.x - b).max() <= 1e-9 * max(1.0, np.abs(b).max())
        assert (A.T @ dual.dual - c).max() <= 1e-9 * max(1.0, c.max())
        assert abs(dual.objective - dual.dual @ b) <= 1e-9 * scale
        assert dual.x.min() >= -DEFAULT_TOL.pivot


def test_repair_drives_a_zero_artificial_out_on_a_negative_entry(monkeypatch):
    # Row 0, -x0 - x1 = 0, forces x0 = x1 = 0, so it is not redundant; its
    # artificial sits at 0 with only negative entries.  Row 1's artificial,
    # at 1, leaves for x2; then row 0's, fixed at 0, leaves for x0 on its
    # negative entry, so the WarmStart holds none.
    A = np.array([[-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    b = np.array([0.0, 1.0])
    c = np.array([1.0, 1.0, 1.0])
    repairs = spy(monkeypatch, _simplex, "dual_pivot_loop")
    got = solve_standard_form(A, b, c)
    assert [(call.result, call.args[1].tolist()) for call in repairs] == [((STATUS_OPTIMAL, 2), [0, 2])]
    assert got.status == STATUS_OPTIMAL and got.objective == 1.0
    assert np.array_equal(got.x, [0.0, 0.0, 1.0])
    assert (got.warm_start.basis < 3).all()
    # The WarmStart serves a neighbouring b with no pivot.
    held = _simplex.Starts(A, c, (got.warm_start,))
    _, served, _, objective, _, _ = _simplex.reuse_basis(A, np.array([[0.0, 2.0]]), held)
    assert served.tolist() == [True] and objective.tolist() == [2.0]


def test_block_reuse_matches_single_solves():
    # reuse_basis reads each row off the latest of the starts held, latest
    # first, that serves that row alone, and gives a row none serves no
    # start.  A copy of the older start, held last, serves wherever it does
    # and is never picked.  Each row gets the bits of a block of that row
    # alone, and a served row the value a cold solve of it reaches.
    rng = np.random.default_rng(5)
    A = np.hstack([rng.normal(size=(4, 6)), np.eye(4)])
    m, n = A.shape
    c = rng.uniform(1.0, 2.0, size=n)
    b0, direction = rng.uniform(1, 2, size=4), rng.normal(size=4)
    old, new = (solve_standard_form(A, b0 + t * direction, c).warm_start for t in (0.0, 4.0))
    held = _simplex.Starts(A, c, (new, old, WarmStart(old.basis, old.inverse)))
    block = b0 + np.outer(np.linspace(-2.0, 6.0, 41), direction)
    starts, served, x, objective, dual, violation = _simplex.reuse_basis(A, block, held)
    assert {id(start) for start in starts} == {id(new), id(old), id(None)}
    for j, b in enumerate(block):
        fits = []
        for start in held:
            x_B = start.inverse @ b
            fits.append(np.where(start.basis < n, -x_B, np.abs(x_B)).max() <= DEFAULT_TOL.primal)
        assert served[j] == any(fits) and starts[j] is (held[fits.index(True)] if any(fits) else None)
        one = _simplex.reuse_basis(A, b[None], held)
        assert one[0][0] is starts[j] and one[1][0] == served[j] and np.array_equal(one[2][0], x[j])
        assert one[3][0] == objective[j] and np.array_equal(one[4][0], dual[j]) and one[5][0] == violation[j]
        if served[j]:
            k = fits.index(True)
            assert np.array_equal(dual[j], held.dual[k]) and violation[j] == held.violation[k]
            alone = solve_standard_form(A, b, c)
            assert abs(alone.objective - objective[j]) <= 1e-12 * abs(objective[j])
        else:
            assert not (x[j].any() or objective[j] or dual[j].any() or violation[j])
    # With no start held, every row must pivot from no start.
    for none in (_simplex.Starts(A, c), None):
        starts, served, *_ = _simplex.reuse_basis(A, block, none)
        assert starts == [None] * len(block) and not served.any()


# ---------------------------------------------------------------------------
# The dual repair's leaving row: dual steepest edge where several rows are
# infeasible, the smallest basic index where one is and after a run of
# dual-degenerate pivots.
# ---------------------------------------------------------------------------

def leaving_tableau(basis, rhs, inverse):
    """A dual feasible tableau over four real columns and two artificials:
    row i holds the basic column basis[i] at rhs[i], columns 2 and 3 enter
    on negative entries at reduced cost 1, and ``inverse`` fills the
    artificial columns, whose rows give the steepest-edge weights."""
    tableau = np.zeros((3, 7))
    tableau[[0, 1], basis] = 1.0
    tableau[:2, 2:4] = [[-1.0, -2.0], [-2.0, -1.0]]
    tableau[:2, 4:6] = inverse
    tableau[:2, 6] = rhs
    tableau[2, 2:4] = 1.0
    return tableau, np.array(basis, dtype=np.int64)


def first_pivot(tableau, basis):
    """The basis after one pivot of ``dual_pivot_loop``."""
    dual_pivot_loop(tableau, basis, 4, DEFAULT_TOL.pivot, 1)
    return basis.tolist()


def test_leaving_row_is_the_steepest_edge(monkeypatch):
    # x0 is 2 below 0 with a B^-1 row of norm 5, score 4/25; x1 is 1 below
    # with norm 1, score 1.  x1 leaves (x2 enters at ratio 1/2); the
    # smallest basic index would have sent x0 out, for x3.
    assert first_pivot(*leaving_tableau([0, 1], [-2.0, -1.0], [[3.0, 4.0], [1.0, 0.0]])) == [0, 2]
    # After a run of _DEGENERATE_RUN dual-degenerate pivots, none here, the
    # smallest basic index leaves instead.
    monkeypatch.setattr(_simplex, "_DEGENERATE_RUN", 0)
    assert first_pivot(*leaving_tableau([0, 1], [-2.0, -1.0], [[3.0, 4.0], [1.0, 0.0]])) == [3, 1]


def test_steepest_edge_tie_goes_to_the_smallest_basic_index():
    # Both rows score exactly 1 (4/4 and 1/1).  Row 1 holds x0, the smaller
    # basic index, so it leaves, though it is the later row.
    assert first_pivot(*leaving_tableau([1, 0], [-2.0, -1.0], [[2.0, 0.0], [0.0, 1.0]])) == [1, 2]


def test_one_infeasible_row_computes_no_weight(monkeypatch):
    # Only x0 is infeasible: it leaves, for x3 at ratio 1/2, which leaves
    # every row feasible, and no row norm of B^-1 is formed.
    weights = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: weights.append(args) or einsum(*args))
    tableau, basis = leaving_tableau([0, 1], [-2.0, 1.0], [[3.0, 4.0], [1.0, 0.0]])
    assert dual_pivot_loop(tableau, basis, 4, DEFAULT_TOL.pivot, 10) == (STATUS_OPTIMAL, 1)
    assert basis.tolist() == [3, 1] and tableau[:2, 6].tolist() == [1.0, 2.0] and weights == []


@pytest.mark.parametrize("run", [0, 1, None])
def test_each_repair_pivot_leaves_by_the_rule(monkeypatch, choi_atoms, run):
    # Replays every leaving row of the cold repair of a channel LP: where
    # several rows are infeasible, the largest (distance past bound)^2 /
    # |e_r B^-1|^2, ties to the smallest basic index, until `run`
    # dual-degenerate pivots in a row (a dual step of at most the pivot
    # tolerance) hand the choice to the smallest basic index.  Run 0 is the
    # smallest-index rule throughout; None keeps the package's run.
    if run is not None:
        monkeypatch.setattr(_simplex, "_DEGENERATE_RUN", run)
    A, b = channel_robustness(unitary_channel(HADAMARD @ T_GATE), choi_atoms).standard_form
    (m, n), tol = A.shape, DEFAULT_TOL.pivot
    pivot, pivots = _simplex._pivot, []

    def spy(tableau, basis, r, q):
        rhs = tableau[:m, -1]
        past = np.where(basis >= n, np.abs(rhs), -rhs)
        step = max(tableau[m, q], 0.0) / abs(tableau[r, q])
        pivots.append((past, tableau[:m, n : n + m].copy(), basis.copy(), r, step))
        pivot(tableau, basis, r, q)

    monkeypatch.setattr(_simplex, "_pivot", spy)
    assert solve_standard_form(A, b, np.ones(n)).status == STATUS_OPTIMAL
    degenerate, steepest, smallest = 0, 0, 0
    for past, inverse, basis, r, step in pivots:
        rows = (past > DEFAULT_TOL.primal).nonzero()[0]
        if rows.size > 1:
            if degenerate < _simplex._DEGENERATE_RUN:
                score = past[rows] ** 2 / (inverse[rows] ** 2).sum(axis=1)
                rows, steepest = rows[score == score.max()], steepest + 1
            else:
                smallest += 1
            assert basis[r] == basis[rows].min()
        degenerate = degenerate + 1 if step <= tol else 0
    assert steepest > 0 if run != 0 else steepest == 0
    assert smallest > 0 if run is not None else smallest == 0
