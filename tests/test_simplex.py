import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicswitch import _simplex, channel_robustness, noisy_th_channel
from magicswitch.config import DEFAULT_TOL
from magicswitch._simplex import (
    STATUS_INFEASIBLE,
    STATUS_ITER_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    bland_pivot_loop,
    fit_polynomial,
    parametric_crossing,
    solve_standard_form,
)

from conftest import fig2_fig3_channels, pivot_walks

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
    # x1 + x2 = -3e-8 has no x >= 0.  Phase 1 leaves 3e-8 of artificial
    # mass, under its cut, and the drive-out pivots x1 in at -3e-8; the
    # x >= -tol verdict reports the LP infeasible instead.
    res = solve_standard_form(np.array([[1.0, 1.0]]), np.array([-3e-8]), np.array([1.0, 2.0]))
    assert res.status == STATUS_INFEASIBLE
    assert np.isnan(res.objective) and not res.x.any() and not res.dual.any()


def test_rejects_malformed_data():
    A = np.array([[1.0, 1.0]])
    with pytest.raises(ValueError, match="shapes"):
        solve_standard_form(A, np.array([1.0, 2.0]), np.ones(2))
    with pytest.raises(ValueError, match="not finite"):
        solve_standard_form(A, np.array([np.nan]), np.ones(2))


def test_unbounded():
    # x0 never appears in a constraint and has negative cost.
    A = np.array([[0.0, 1.0]])
    b = np.array([1.0])
    c = np.array([-1.0, 0.0])
    res = solve_standard_form(A, b, c)
    assert res.status == STATUS_UNBOUNDED


def test_redundant_row():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    res = solve_standard_form(A, b, np.array([1.0, 3.0]))
    assert res.status == STATUS_OPTIMAL
    assert abs(res.objective - 1.0) < 1e-10


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


def test_cold_solve_is_a_start_from_the_artificial_basis(rng):
    # A cold solve starts from arange(n, n + m) through the same path as a
    # warm one, so passing that basis changes nothing, bit for bit.
    for _ in range(40):
        m = rng.integers(1, 4)
        n = rng.integers(m + 1, 8)
        A = rng.normal(size=(m, n))
        b = A @ np.abs(rng.normal(size=n))
        c = np.abs(rng.normal(size=n))
        cold = solve_standard_form(A, b, c)
        assert cold.status == STATUS_OPTIMAL
        assert_same_result(solve_standard_form(A, b, c, basis=np.arange(n, n + m)), cold)


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


def recorded_pivot_inputs(monkeypatch, solve):
    """Run ``solve()`` and return a copy of every pivot-loop input it made
    (the phase-1 and phase-2 tableaux of each LP)."""
    inputs = []

    def recorder(tableau, basis, n_enterable, tol, max_iter):
        inputs.append((tableau.copy(), basis.copy(), n_enterable, tol, max_iter))
        return bland_pivot_loop(tableau, basis, n_enterable, tol, max_iter)

    with monkeypatch.context() as patch:
        patch.setattr(_simplex, "bland_pivot_loop", recorder)
        solve()
    return inputs


def assert_same_walk(tableau, basis, n_enterable, tol, max_iter):
    t_ref, b_ref = tableau.copy(), basis.copy()
    t_new, b_new = tableau.copy(), basis.copy()
    expected = reference_pivot_loop(t_ref, b_ref, n_enterable, tol, max_iter)
    assert bland_pivot_loop(t_new, b_new, n_enterable, tol, max_iter) == expected
    assert np.array_equal(b_new, b_ref)
    # Bit for bit, signed zeros included.
    assert t_new.tobytes() == t_ref.tobytes()
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
    bland_pivot_loop(tableau, basis, 1, 1e-9, 10)
    assert basis.tolist() == [2, 0]


def test_kernel_matches_reference_on_integer_lps(monkeypatch, rng):
    # Small integers make exact ratio ties, and so the smallest-basic-index
    # tie-break, common; negative costs make some programs unbounded.
    statuses = set()
    for _ in range(60):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 10))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = A @ rng.integers(0, 3, size=n)
        c = rng.integers(-1, 4, size=n).astype(float)
        for inputs in recorded_pivot_inputs(monkeypatch, lambda: solve_standard_form(A, b, c)):
            statuses.add(assert_same_walk(*inputs)[0])
    assert {STATUS_OPTIMAL, STATUS_UNBOUNDED} <= statuses


def test_kernel_matches_reference_when_unbounded(monkeypatch):
    A = np.array([[0.0, 1.0]])
    inputs = recorded_pivot_inputs(
        monkeypatch, lambda: solve_standard_form(A, np.array([1.0]), np.array([-1.0, 0.0]))
    )
    assert assert_same_walk(*inputs[-1])[0] == STATUS_UNBOUNDED


def test_kernel_matches_reference_with_no_enterable_column():
    tableau = np.array([[1.0, 1.0], [-1.0, -1.0]])
    basis = np.array([0], dtype=np.int64)
    assert assert_same_walk(tableau, basis, 0, 1e-9, 10) == (STATUS_OPTIMAL, 1)


def test_kernel_matches_reference_on_channel_lps(monkeypatch, choi_atoms):
    for ch in fig2_fig3_channels():
        inputs = recorded_pivot_inputs(monkeypatch, lambda: channel_robustness(ch, choi_atoms))
        assert len(inputs) == 2  # phase 1 and phase 2
        for recorded in inputs:
            assert assert_same_walk(*recorded)[0] == STATUS_OPTIMAL


def test_kernel_matches_reference_at_iteration_limit(monkeypatch, choi_atoms):
    ch = noisy_th_channel(0.2)
    tableau, basis, n, tol, _ = recorded_pivot_inputs(
        monkeypatch, lambda: channel_robustness(ch, choi_atoms)
    )[0]
    assert assert_same_walk(tableau, basis, n, tol, 3) == (STATUS_ITER_LIMIT, 3)



def assert_same_result(got, want):
    assert (got.status, got.iterations, got.objective) == (want.status, want.iterations, want.objective)
    for field in ("x", "dual", "basis"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_warm_start_takes_one_phase1_iteration(monkeypatch, choi_atoms):
    # The optimal basis at one grid point is feasible at the next, so phase 1
    # only confirms it; phase 2 then runs from there.
    for p, step in ((0.1, 0.01), (0.5, 0.01), (0.9, -0.01)):
        start = channel_robustness(noisy_th_channel(p), choi_atoms)
        ch = noisy_th_channel(p + step)
        cold, cold_walks = pivot_walks(monkeypatch, lambda: channel_robustness(ch, choi_atoms))
        warm, walks = pivot_walks(
            monkeypatch, lambda: channel_robustness(ch, choi_atoms, basis=start.basis)
        )
        assert len(walks) == 2 and walks[0] == (STATUS_OPTIMAL, 1)
        assert cold_walks[0][1] > 1
        assert warm.status == "optimal" and abs(warm.value - cold.value) < 1e-12


def test_start_basis_holding_a_positive_artificial_runs_phase1(monkeypatch):
    # x0 + x1 = 1, x1 + x2 = 1.  The basis {x0, artificial of row 1} is
    # nonsingular and feasible for [A | I] (the artificial sits at 1), so
    # phase 1 starts there and must pivot the artificial out.
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 3.0, 1.0])
    cold = solve_standard_form(A, b, c)
    warm, walks = pivot_walks(monkeypatch, lambda: solve_standard_form(A, b, c, basis=np.array([0, 4])))
    assert walks[0][1] > 1
    assert warm.status == STATUS_OPTIMAL and warm.objective == cold.objective == 2.0
    assert np.array_equal(warm.x, [1.0, 0.0, 1.0])


def solve_recording_starts(A, b, c, basis):
    """``solve_standard_form`` from ``basis``; returns the result and, per
    ``_start_from_basis`` call, the basis it was given and what it gave
    back, None for a basis that cannot start the solve."""
    starts = []
    start_from_basis = _simplex._start_from_basis

    def spy(A, b, cost, basis, *rest):
        starts.append((np.array(basis), start_from_basis(A, b, cost, basis, *rest)))
        return starts[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_simplex, "_start_from_basis", spy)
        result = solve_standard_form(A, b, c, basis=basis)
    return result, starts


def test_primal_infeasible_optimal_basis_is_repaired_to_the_cold_optimum():
    # x0 - x1 = b: the basis {x0} is optimal for b = 1 and primal infeasible
    # for b = -1.  Its reduced costs do not depend on b, so it is still dual
    # feasible, and one dual pivot brings x1 in.
    A = np.array([[1.0, -1.0]])
    c = np.array([1.0, 2.0])
    assert solve_standard_form(A, np.array([1.0]), c).basis.tolist() == [0]
    cold = solve_standard_form(A, np.array([-1.0]), c)
    warm, starts = solve_recording_starts(A, np.array([-1.0]), c, np.array([0]))
    ((_, (_, basis, dual_pivots)),) = starts
    assert basis.tolist() == [1] and dual_pivots == 1
    assert (warm.status, warm.objective) == (cold.status, cold.objective) == (STATUS_OPTIMAL, 2.0)
    assert warm.basis.tolist() == cold.basis.tolist() == [1]


def test_start_neither_primal_nor_dual_feasible_starts_cold(monkeypatch):
    # x0 - x1 + x2 = -1: the basis {x2} puts x2 at -1, and x0's reduced
    # cost 1 - 5 is negative, so no dual pivot may run from it.
    A = np.array([[1.0, -1.0, 1.0]])
    b = np.array([-1.0])
    c = np.array([1.0, 1.0, 5.0])
    monkeypatch.setattr(_simplex, "dual_pivot_loop", None)  # never reached
    cold = solve_standard_form(A, b, c)
    warm, starts = solve_recording_starts(A, b, c, np.array([2]))
    # The rejected basis falls back to one more start, from the artificial basis.
    assert [(given.tolist(), start is None) for given, start in starts] == [([2], True), ([3], False)]
    assert_same_result(warm, cold)
    assert cold.status == STATUS_OPTIMAL and cold.objective == 1.0


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), feasible=st.booleans())
def test_warm_resolve_matches_a_cold_solve(seed, feasible):
    # The optimal basis at b1 starts the solve at b2, which may be primal
    # infeasible for b2 or make the whole LP infeasible.  Positive costs keep
    # every LP bounded, so its optimal basis at b1 is dual feasible at b2.
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(m + 1, 10))
    A = rng.normal(size=(m, n))
    c = rng.uniform(0.1, 2.0, size=n)
    b1 = A @ rng.uniform(0.0, 1.0, size=n)
    b2 = A @ rng.uniform(0.0, 1.0, size=n) if feasible else rng.normal(size=m)
    start = solve_standard_form(A, b1, c)
    assert start.status == STATUS_OPTIMAL
    warm, starts = solve_recording_starts(A, b2, c, start.basis)
    cold = solve_standard_form(A, b2, c)
    assert warm.status == cold.status
    # A rejected start falls back to one start from the artificial basis.
    assert len(starts) == 1 + (starts[0][1] is None)
    if len(starts) == 2:
        assert np.array_equal(starts[1][0], np.arange(n, n + m))
    if feasible:
        assert starts[0][1] is not None  # started warm, repaired where needed
    if cold.status == STATUS_OPTIMAL:
        assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
        assert np.abs(A @ warm.x - b2).max() <= 1e-8
    else:
        assert cold.status == STATUS_INFEASIBLE and not feasible
    if HIGHS is not None:
        highs = HIGHS(c, A_eq=A, b_eq=b2, bounds=(0, None), method="highs")
        assert highs.status == {STATUS_OPTIMAL: 0, STATUS_INFEASIBLE: 2}[cold.status]
        if highs.status == 0:
            assert abs(highs.fun - warm.objective) <= 1e-7 * max(1.0, abs(warm.objective))


def test_unusable_start_basis_falls_back_to_cold_start():
    # Columns 0 and 1 are parallel up to 1e-13: the basis {0, 1, 2, 3} is
    # feasible but so ill-conditioned that starting from it gives a wrong
    # optimum.  A repeated column is exactly singular.
    c0 = np.array([1.0, 2.0, 3.0, 4.0])
    c1 = c0 + 1e-13 * np.array([1.0, -1.0, 2.0, 0.5])
    A = np.column_stack([c0, c1, [0, 1, 0, 2], [3, 0, 1, 1], [1, 1, 1, 1], [2, 0, 0, 1]])
    b = A[:, :4] @ np.ones(4)
    c = np.ones(6)
    cold = solve_standard_form(A, b, c)
    assert cold.status == STATUS_OPTIMAL
    for basis in ([0, 1, 2, 3], [0, 0, 2, 3], [0, 2, 3], [0, 2, 3, 10], [-1, 2, 3, 4]):
        assert_same_result(solve_standard_form(A, b, c, basis=np.array(basis)), cold)
    # The optimal basis itself is a valid start and gives the same optimum.
    warm = solve_standard_form(A, b, c, basis=cold.basis)
    assert warm.status == STATUS_OPTIMAL and abs(warm.objective - cold.objective) < 1e-12


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
    # Sparse integer solutions make degenerate LPs, which leave artificials
    # basic at zero after phase 1 for the drive-out to remove.
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
        # The drive-out does the same arithmetic as the loop; the objective
        # row is one matrix product now, so it agrees to rounding.
        assert got[:m].tobytes() == want[:m].tobytes()
        assert np.allclose(got[m], want[m], rtol=1e-12, atol=1e-12)
    assert driven > 0


# Parametric right-hand side: min x1 + x2 s.t. x1 - x2 = t - 0.3, whose value
# is |t - 0.3|, written as rhs(t) / scale(t) with scale(t) = 1 + t.
ABS_A = np.array([[1.0, -1.0]])
ABS_C = np.ones(2)
ABS_SCALE = np.array([1.0, 1.0, 0.0])
ABS_RHS = np.array([[-0.3], [0.7], [1.0]])  # (1 + t)(t - 0.3)


def abs_walk(t, stop, level):
    start = solve_standard_form(ABS_A, np.array([t - 0.3]), ABS_C)
    return parametric_crossing(ABS_A, ABS_C, ABS_RHS, ABS_SCALE, level, start.basis, t, stop)


def test_parametric_crossing_inside_the_first_interval():
    root, solves = abs_walk(0.0, 0.3, 0.1)
    assert abs(root - 0.2) < 1e-15 and solves == 0


@pytest.mark.parametrize("t, stop", [(0.25, 1.0), (0.35, 0.0)])
def test_parametric_crossing_steps_to_the_next_basis(t, stop):
    # Past t = 0.3 the other variable carries |t - 0.3|, and the rhs row
    # changes sign, so the solve's row flip changes too.
    root, solves = abs_walk(t, stop, 0.1)
    assert solves == 1
    assert abs(root - (0.4 if stop > t else 0.2)) < 1e-15


def test_parametric_crossing_at_a_breakpoint():
    # min x1 s.t. x1 - x2 = t - 0.3 has value max(0, t - 0.3): on the level
    # 0 all along the first interval, above it right past the breakpoint.
    c = np.array([1.0, 0.0])
    start = solve_standard_form(ABS_A, np.array([-0.2]), c)
    rhs = np.array([[-0.3], [1.0], [0.0]])
    root, solves = parametric_crossing(ABS_A, c, rhs, np.array([1.0, 0.0, 0.0]), 0.0, start.basis, 0.1, 1.0)
    assert abs(root - 0.3) < 1e-8 and solves == 1


def test_parametric_crossing_reports_no_crossing():
    assert abs_walk(0.25, 1.0, 0.9) == (None, 1)
    assert abs_walk(0.0, 0.1, 0.1) == (None, 0)
    # 0.3 - t reaches -0.05 at t = 0.35, past the end of its interval.
    assert abs_walk(0.25, 1.0, -0.05) == (None, 1)


def test_parametric_crossing_stops_past_the_feasible_range(monkeypatch):
    # min x1 + 2 x2 s.t. x1 + x2 = 10 (t - 0.3)(t - 0.6) is infeasible on
    # (0.3, 0.6), so its value leaves the level 2 there, well before it
    # comes back at 0.92.  The step just past 0.3 cannot be repaired, and
    # its cold fallback, whose phase-1 cut alone would accept the
    # infeasibility of 3e-9 there, reports the LP infeasible: the walk ends.
    A, c = np.array([[1.0, 1.0]]), np.array([1.0, 2.0])
    rhs = np.array([[1.8], [-9.0], [10.0]])
    assert solve_standard_form(A, np.array([-0.225]), c).status == STATUS_INFEASIBLE
    repairs = []
    dual_pivot_loop = _simplex.dual_pivot_loop

    def recording_repair(*args):
        status, pivots = dual_pivot_loop(*args)
        repairs.append(status)
        return status, pivots

    monkeypatch.setattr(_simplex, "dual_pivot_loop", recording_repair)
    start = solve_standard_form(A, rhs[0], c)
    assert parametric_crossing(A, c, rhs, np.array([1.0, 0.0, 0.0]), 2.0, start.basis, 0.0, 1.0) == (None, 1)
    assert repairs == [STATUS_INFEASIBLE]


def test_parametric_crossing_stops_on_a_nonpositive_scale():
    start = solve_standard_form(ABS_A, np.array([-0.3]), ABS_C)
    scale = np.array([-1.0, 0.0, 0.0])
    assert parametric_crossing(ABS_A, ABS_C, -ABS_RHS, scale, 0.1, start.basis, 0.0, 1.0) == (None, 0)


def crossing_by_scan(A, c, rhs_at, level, t, stop, step=4e-3):
    """Oracle: the first grid cell from t toward stop where the optimal value
    crosses level, narrowed by bisection on cold solves."""
    def free(s):
        return solve_standard_form(A, rhs_at(s), c).objective <= level

    start = free(t)
    grid = np.linspace(t, stop, int(round(abs(stop - t) / step)) + 1)
    for a, b in zip(grid, grid[1:]):
        if free(b) != start:
            while abs(b - a) > 1e-12:
                mid = 0.5 * (a + b)
                a, b = (mid, b) if free(mid) == start else (a, mid)
            return 0.5 * (a + b)
    return None


def test_parametric_crossing_matches_a_scan_on_random_lps(monkeypatch, rng):
    # b(t) = A (x0 + t x1 + t^2 x2) is feasible at t = 0; the walk must find
    # the scan's first crossing of a level between the values at the ends.
    # Each solve past an interval's end must start from the walk's basis,
    # repaired by dual pivots, not cold.  The one exception is a step past
    # the end of the LP's feasible range (x1 and x2 are signed, so b(t) can
    # leave the cone of A): there the repair finds no entering column, which
    # proves the LP infeasible, the solve decides it from one more start,
    # from the artificial basis, and the walk ends at that step with no
    # crossing.
    calls = []  # per _start_from_basis call: [artificial basis?, accepted?, repair status]
    start_from_basis, dual_pivot_loop = _simplex._start_from_basis, _simplex.dual_pivot_loop

    def recording_start(A, b, cost, basis, *rest):
        m, n = A.shape
        calls.append([np.array_equal(basis, np.arange(n, n + m)), None, None])
        start = start_from_basis(A, b, cost, basis, *rest)
        calls[-1][1] = start is not None
        return start

    def recording_repair(*args):
        status, pivots = dual_pivot_loop(*args)
        calls[-1][2] = status
        return status, pivots

    monkeypatch.setattr(_simplex, "_start_from_basis", recording_start)
    monkeypatch.setattr(_simplex, "dual_pivot_loop", recording_repair)
    steps = []  # per step solve of a walk: its start from the walk's basis
    crossings = stepped = ended = 0
    for _ in range(12):
        A = rng.normal(size=(3, 7))
        c = rng.uniform(0.5, 2.0, size=7)
        xs = rng.uniform(0.0, 1.0, size=(3, 7))
        xs[1:] *= rng.choice([-1.0, 1.0], size=(2, 1))
        xs[0] += 1.0
        rhs = xs @ A.T  # (3, m): coefficients of b(t)

        def rhs_at(t, rhs=rhs):
            return rhs[0] + t * (rhs[1] + t * rhs[2])

        ends = [solve_standard_form(A, rhs_at(t), c).objective for t in (0.0, 1.0)]
        level = 0.5 * sum(ends)
        start = solve_standard_form(A, rhs_at(0.0), c)
        first_call = len(calls)
        root, solves = parametric_crossing(A, c, rhs, np.array([1.0, 0.0, 0.0]), level, start.basis, 0.0, 1.0)
        walk = calls[first_call:]
        walk_steps = [call for call in walk if not call[0]]
        assert len(walk_steps) == solves
        # Each rejected start falls back to exactly one artificial start.
        assert len(walk) - len(walk_steps) == sum(not accepted for _, accepted, _ in walk_steps)
        steps += walk_steps
        stepped += solves > 0
        repairs = [repair for _, _, repair in walk_steps]
        if STATUS_INFEASIBLE in repairs:
            assert repairs.index(STATUS_INFEASIBLE) == len(repairs) - 1 and root is None
            ended += 1
        want = crossing_by_scan(A, c, rhs_at, level, 0.0, 1.0)
        if want is None:
            assert root is None
        else:
            crossings += 1
            assert root is not None and abs(root - want) < 1e-9
    assert crossings >= 6 and stepped >= 2 and ended >= 1
    assert all(accepted or repair == STATUS_INFEASIBLE for _, accepted, repair in steps)
    assert sum(repair == STATUS_OPTIMAL for _, _, repair in steps) >= 2


def test_fit_polynomial_checks_the_extra_point():
    t = np.array([0.1, 0.2, 0.4, 0.5])
    quadratic = np.column_stack([1 - 2 * t + 3 * t**2, np.full(4, 0.5)])
    fit = fit_polynomial(t, quadratic, 1e-10)
    assert np.allclose(fit, [[1.0, 0.5], [-2.0, 0.0], [3.0, 0.0]], atol=1e-12)
    cubic = quadratic + (t**3)[:, None] * 1e-6
    assert fit_polynomial(t, cubic, 1e-10) is None
