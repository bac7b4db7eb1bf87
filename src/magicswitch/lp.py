"""The two robustness linear programs and their one certified solve.

Both monotones are fixed l1 minimizations over a fixed atom set (Seddon &
Campbell, Proc. R. Soc. A 475, 20190251 (2019)):

* state robustness, ``rom_state``: min sum(a + b) over a, b >= 0 with
  sum_i (a_i - b_i) P_i = rho, over the pure stabilizer projectors P_i;
* channel robustness, ``channel_robustness``: the same over the 60
  two-qubit stabilizer Choi atoms, with each side's reference marginal
  held proportional to the identity (its X, Y, Z components vanish), which
  makes the optimal value 1 + 2p.

Hermitian data is expanded over the orthonormal Pauli basis, so the
solver sees exact real inputs.  Each program's constraint matrix depends
only on its atom set: ``_assemble_standard_form`` builds it once per set,
with the plus parts of the coefficients in the first half of the columns
and the minus parts in the second, and a solve builds only its right-hand
side.  ``solve_l1(A, b)`` then runs the embedded simplex at unit costs and
certifies the answer.  Each solve starts cold, or from the one start form
the simplex takes: ``basis``, the ``warm_start`` of a solve of the same
program at a neighbouring right-hand side.  A caller that holds several
such bases, as a sweep run or a threshold search does, passes them all,
and the solve starts from the one least infeasible for its right-hand
side (``_simplex.least_infeasible``): one that serves it, where any does.

Both programs also take a grid (a channel or state with a leading axis)
and return one solution per entry, in order: one warm walk down the
column of right-hand sides.  ``B^-1 [b_j ... b_N]`` at the current basis,
one stacked mat-vec, reads off every entry from j on that the basis
serves, with no pivot (``_simplex.reuse_basis``), the first entry
included.  The first entry it does not serve, or the first of all when
there is no basis, must pivot: ``solve_standard_form`` solves it from that
basis (repaired by dual pivots, or cold), and the walk goes on from the
basis it reaches.  Each entry gets the solution, and the certificates,
that a walk of it alone from the same basis gives; a single object is the
grid of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    WarmStart,
    least_infeasible,
    reuse_basis,
    solve_standard_form,
)
from .channels import DensityOperator, KrausChannel, choi_of_channel, log_renormalized
from .config import DEFAULT_TOL
from .gates import PAULI_X, PAULI_Y, PAULI_Z
from .linalg import DimensionMismatchError, pauli_basis, pauli_vectorize

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class L1Solution:
    """Solver output.

    ``value`` is the optimal l1 norm (for the channel program this equals
    2p + 1 automatically, since the trace row forces sum a - sum b = 1).
    ``plus`` and ``minus`` are the two sides of the decomposition, one
    weight per atom.  ``residual``, ``dual_gap`` and ``dual_violation`` (the
    worst excess of A^T y over the unit costs) certify the value.
    ``warm_start`` is the optimal basis with its inverse, which can start the
    solve of a neighbouring problem; it is None when no optimum was found.
    ``standard_form`` is the pair ``(A, b)`` of the equality constraints
    ``A x = b, x >= 0`` it solved.
    """

    value: float
    status: str
    residual: float
    plus: np.ndarray
    minus: np.ndarray
    dual_gap: float
    dual_violation: float
    iterations: int
    warm_start: WarmStart | None = None
    renorm_factor: float = 1.0
    standard_form: tuple | None = None

    @property
    def checked_status(self) -> str:
        """``status``, except that an optimal solution whose residual, duality
        gap or dual infeasibility exceeds ``DEFAULT_TOL.lp_residual`` is
        ``check_failed``."""
        worst = max(self.residual, self.dual_gap, self.dual_violation)
        return "check_failed" if self.status == "optimal" and worst > DEFAULT_TOL.lp_residual else self.status


def _assemble_standard_form(vectors: np.ndarray, marginal_rows: np.ndarray | None = None) -> np.ndarray:
    """The read-only constraint matrix over columns ``[plus | minus]``.

    ``vectors`` holds one real atom vector per row; each becomes a column
    of the reconstruction rows, with the opposite sign on the minus side.
    Each of the ``marginal_rows`` is then imposed on either side alone: one
    row over the plus columns, then one over the minus columns.
    """
    A = np.hstack([vectors.T, -vectors.T])
    if marginal_rows is not None:
        k, n = marginal_rows.shape
        sides = np.zeros((k, 2, 2 * n))
        sides[:, 0, :n] = marginal_rows
        sides[:, 1, n:] = marginal_rows
        A = np.vstack([A, sides.reshape(2 * k, 2 * n)])
    A.flags.writeable = False
    return A


def solve_l1(A: np.ndarray, b: np.ndarray, basis=None, renorm_factor=1.0):
    """min sum(x) subject to A x = b, x >= 0, for a matrix from
    ``_assemble_standard_form``, with the embedded simplex.

    ``b`` is one right-hand side, which gives one ``L1Solution``, or a block
    of them, one per row, which gives a list: the warm walk of the module
    docstring, from ``basis``: only an entry the basis does not serve
    reaches ``solve_standard_form``.  ``basis`` is None, the ``WarmStart``
    of a solve of the same program, or a sequence of them, the bases a run
    holds, most recent last; the walk then starts from the one that is
    least infeasible for the first right-hand side (``least_infeasible``),
    which is one that serves it when any does.  ``renorm_factor`` (a
    number, or one per right-hand side) is reported on each solution.
    Deterministic under the fixed atom ordering and ``basis`` (see
    ``solve_standard_form``); the reconstruction residual, the duality gap
    and the dual feasibility of every returned solution, a reused
    ``WarmStart``'s too, are computed from A, x and y, and
    ``L1Solution.checked_status`` holds them to one tolerance.
    """
    single = np.ndim(b) == 1
    b = np.asarray(b, dtype=np.float64).reshape(-1, A.shape[0])
    if not np.isfinite(b).all():
        raise ValueError("LP right-hand side is not finite")
    if basis is not None and not isinstance(basis, WarmStart):
        basis = least_infeasible(A, b[0], basis)
    c = np.ones(A.shape[1])
    factors = np.broadcast_to(np.asarray(renorm_factor, dtype=np.float64), len(b))
    solutions = []
    j = 0
    while j < len(b):
        if basis is not None:
            served, x, objective, dual = reuse_basis(A, b[j:], c, basis)
            if served:
                rows = slice(j, j + served)
                solutions += _certified(A, b[rows], c, x, objective, dual, 0, basis, factors[rows])
                j += served
            if j == len(b):
                break
        result = solve_standard_form(A, b[j], c, basis=basis)
        basis = result.warm_start
        if result.status == STATUS_OPTIMAL:
            x, objective = result.x[None], np.array([result.objective])
            rows = slice(j, j + 1)
            solutions += _certified(A, b[rows], c, x, objective, result.dual, result.iterations, basis, factors[rows])
        else:
            status = "infeasible" if result.status == STATUS_INFEASIBLE else "numerical_failure"
            nan = np.full(A.shape[1] // 2, np.nan)
            solutions.append(L1Solution(np.nan, status, np.nan, nan, nan, np.nan, np.nan, result.iterations,
                                        renorm_factor=float(factors[j])))
        j += 1
    return solutions[0] if single else solutions


def _certified(A, b, c, x, objective, dual, iterations, warm_start, factors) -> list[L1Solution]:
    """Optimal solutions, one per row of ``b``, ``x``, ``objective`` and
    renormalization ``factors``, that share the dual ``dual`` and the basis
    ``warm_start``, with their certificates: each row's residual and gap
    take the bits of its mat-vec and dot product alone."""
    n = A.shape[1] // 2
    residual = np.abs((A @ x[:, :, None])[:, :, 0] - b).max(axis=1, initial=0.0)
    gap = np.abs(objective - (b[:, None, :] @ dual[:, None])[:, 0, 0])
    violation = float(max(0.0, (A.T @ dual - c).max()))
    return [
        L1Solution(
            value=float(objective[k]),
            status="optimal",
            residual=float(residual[k]),
            plus=x[k, :n],
            minus=x[k, n:],
            dual_gap=float(gap[k]),
            dual_violation=violation,
            iterations=iterations,
            warm_start=warm_start,
            renorm_factor=float(factors[k]),
            standard_form=(A, b[k]),
        )
        for k in range(len(b))
    ]


@lru_cache(maxsize=None)
def _state_constraints(dictionary) -> np.ndarray:
    vectors = pauli_vectorize(np.array(dictionary.projectors), pauli_basis(dictionary.n_qubits))
    return _assemble_standard_form(vectors)


def rom_state(rho: DensityOperator, dictionary, basis=None):
    """Robustness of a state over a stabilizer dictionary.

    Every input is renormalized first; the factor is reported on the
    solution and logged when it is not 1.  Faithful: the value is 1 exactly when the
    state lies in the stabilizer polytope.  ``basis`` may carry the
    ``warm_start`` of a neighbouring state's solve, or several held bases,
    as a starting point.  A grid of states gives one solution per entry, in
    order, from one warm walk (``solve_l1``).  An infeasible LP, for any
    entry, raises.
    """
    rho, factor = rho.renormalized()
    log_renormalized(logger, "rom_state", factor)
    if rho.dim != dictionary.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} != dictionary dim {dictionary.dim}"
        )
    target = pauli_vectorize(rho.matrix, pauli_basis(dictionary.n_qubits))
    solutions = solve_l1(_state_constraints(dictionary), target, basis, factor)
    walk = solutions if isinstance(solutions, list) else [solutions]
    _log_solutions("rom_state", walk)
    if any(solution.status == "infeasible" for solution in walk):
        raise ValueError("robustness LP infeasible: input is not a valid state")
    return solutions


def _log_solutions(who: str, solutions: list) -> None:
    if logger.isEnabledFor(logging.DEBUG):
        for solution in solutions:
            logger.debug("%s status=%s value=%.12g", who, solution.status, solution.value)


@lru_cache(maxsize=None)
def _channel_constraints(atoms) -> np.ndarray:
    """Choi reconstruction rows, then for each of X, Y, Z one marginal row
    over the plus side and one over the minus side."""
    vectors = pauli_vectorize(np.array([a.projector for a in atoms]), pauli_basis(2))
    marginals = np.array([a.marginal for a in atoms])
    # tr(P m) for each Pauli P and each atom marginal m.
    marginal_rows = np.einsum("pij,aji->pa", np.array([PAULI_X, PAULI_Y, PAULI_Z]), marginals).real
    return _assemble_standard_form(vectors, marginal_rows)


def channel_robustness(ch: KrausChannel, atoms, basis=None):
    """Channel robustness of a single-qubit channel over Choi atoms.

    The two sides of the decomposition are conic combinations of stabilizer
    Choi projectors; each side separately satisfies the trace-preservation
    marginal (its X, Y, Z components vanish), which together with the Choi
    reconstruction rows makes the optimal l1 norm equal 1 + 2p.  ``basis``
    may carry the ``warm_start`` of a neighbouring channel's solve, or
    several held bases, as a starting point.  A grid of channels gives one
    solution per entry, in order, from one warm walk (``solve_l1``).
    """
    if ch.d_in != 2 or ch.d_out != 2:
        raise DimensionMismatchError("channel robustness is implemented for qubit channels")
    target = pauli_vectorize(choi_of_channel(ch).matrix, pauli_basis(2))
    A = _channel_constraints(atoms)
    b = np.concatenate([target, np.zeros(target.shape[:-1] + (A.shape[0] - target.shape[-1],))], axis=-1)
    solutions = solve_l1(A, b, basis)
    _log_solutions("channel_robustness", solutions if isinstance(solutions, list) else [solutions])
    return solutions
