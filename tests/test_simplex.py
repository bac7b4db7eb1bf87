import itertools

import numpy as np

from magicswitch import _simplex, channel_robustness, noisy_th_channel
from magicswitch._simplex import (
    STATUS_INFEASIBLE,
    STATUS_ITER_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    bland_pivot_loop,
    solve_standard_form,
)

from conftest import fig2_fig3_channels, pivot_walks


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


def test_infeasible_start_basis_falls_back_to_cold_start():
    # x0 - x1 = b: the basis {x0} is feasible for b = 1 and not for b = -1.
    A = np.array([[1.0, -1.0]])
    c = np.array([1.0, 2.0])
    assert solve_standard_form(A, np.array([1.0]), c).basis.tolist() == [0]
    cold = solve_standard_form(A, np.array([-1.0]), c)
    warm = solve_standard_form(A, np.array([-1.0]), c, basis=np.array([0]))
    assert_same_result(warm, cold)
    assert warm.basis.tolist() == [1] and warm.objective == 2.0


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
        driven += reference_phase2_start(want, want_basis, c, _simplex._PIVOT_TOL)
        assert np.array_equal(got_basis, want_basis)
        # The drive-out does the same arithmetic as the loop; the objective
        # row is one matrix product now, so it agrees to rounding.
        assert got[:m].tobytes() == want[:m].tobytes()
        assert np.allclose(got[m], want[m], rtol=1e-12, atol=1e-12)
    assert driven > 0
