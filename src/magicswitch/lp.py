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
certifies the answer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ._simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    solve_standard_form,
)
from .channels import DensityOperator, KrausChannel, choi_of_channel
from .config import DEFAULT_TOL
from .gates import PAULI_X, PAULI_Y, PAULI_Z
from .linalg import DimensionMismatchError, pauli_strings, pauli_vectorize

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class L1Solution:
    """Solver output.

    ``value`` is the optimal l1 norm (for the channel program this equals
    2p + 1 automatically, since the trace row forces sum a - sum b = 1).
    ``plus`` and ``minus`` are the two sides of the decomposition, one
    weight per atom.  ``residual``, ``dual_gap`` and ``dual_violation`` (the
    worst excess of A^T y over the unit costs) certify the value.
    ``basis`` is the optimal simplex basis, which can start the solve of a
    neighbouring problem; it is None when no optimum was found.
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
    basis: np.ndarray | None = None
    renorm_factor: float = 1.0
    standard_form: tuple | None = None


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


def solve_l1(A: np.ndarray, b: np.ndarray, basis: np.ndarray | None = None) -> L1Solution:
    """min sum(x) subject to A x = b, x >= 0, for a matrix from
    ``_assemble_standard_form``, with the embedded simplex.

    Deterministic under the fixed atom ordering and the starting ``basis``
    (see ``solve_standard_form``); the reconstruction residual, the duality
    gap and the dual feasibility of the returned basic solution are
    reported so callers can enforce their own floors.
    """
    c = np.ones(A.shape[1])
    result = solve_standard_form(A, b, c, basis=basis)
    n = A.shape[1] // 2
    if result.status == STATUS_INFEASIBLE:
        status = "infeasible"
    elif result.status == STATUS_OPTIMAL:
        status = "optimal"
    else:
        status = "numerical_failure"
    if status != "optimal":
        nanvec = np.full(n, np.nan)
        return L1Solution(np.nan, status, np.nan, nanvec, nanvec, np.nan, np.nan, result.iterations)
    return L1Solution(
        value=float(result.objective),
        status=status,
        residual=float(np.abs(A @ result.x - b).max()),
        plus=result.x[:n],
        minus=result.x[n:],
        dual_gap=float(abs(result.objective - result.dual @ b)),
        dual_violation=float(max(0.0, (A.T @ result.dual - c).max())),
        iterations=result.iterations,
        basis=result.basis,
        standard_form=(A, b),
    )


@lru_cache(maxsize=None)
def _cached_paulis(n_qubits: int):
    return pauli_strings(n_qubits)


@lru_cache(maxsize=None)
def _state_constraints(dictionary) -> np.ndarray:
    paulis = _cached_paulis(dictionary.n_qubits)
    return _assemble_standard_form(np.array([pauli_vectorize(P, paulis) for P in dictionary.projectors]))


def rom_state(rho: DensityOperator, dictionary, basis: np.ndarray | None = None) -> L1Solution:
    """Robustness of a state over a stabilizer dictionary.

    Unnormalized inputs are renormalized first and the factor is logged and
    reported on the solution.  Faithful: the value is 1 exactly when the
    state lies in the stabilizer polytope.  ``basis`` may carry the optimal
    basis of a neighbouring state's solve as a starting point.
    """
    factor = 1.0
    if not rho.normalized or abs(rho.trace - 1.0) > DEFAULT_TOL.psd:
        rho, factor = rho.renormalized()
        logger.info("rom_state renormalized input by factor %.12g", factor)
    if rho.dim != dictionary.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} != dictionary dim {dictionary.dim}"
        )
    target = pauli_vectorize(rho.matrix, _cached_paulis(dictionary.n_qubits))
    solution = solve_l1(_state_constraints(dictionary), target, basis)
    logger.info("rom_state status=%s value=%.12g", solution.status, solution.value)
    if solution.status == "infeasible":
        raise ValueError("robustness LP infeasible: input is not a valid state")
    return replace(solution, renorm_factor=factor)


@lru_cache(maxsize=None)
def _channel_constraints(atoms) -> np.ndarray:
    """Choi reconstruction rows, then for each of X, Y, Z one marginal row
    over the plus side and one over the minus side."""
    paulis = _cached_paulis(2)
    vectors = np.array([pauli_vectorize(a.projector, paulis) for a in atoms])
    marginals = np.array([a.marginal for a in atoms])
    # tr(P m) for each Pauli P and each atom marginal m.
    marginal_rows = np.einsum("pij,aji->pa", np.array([PAULI_X, PAULI_Y, PAULI_Z]), marginals).real
    return _assemble_standard_form(vectors, marginal_rows)


def channel_robustness(ch: KrausChannel, atoms, basis: np.ndarray | None = None) -> L1Solution:
    """Channel robustness of a single-qubit channel over Choi atoms.

    The two sides of the decomposition are conic combinations of stabilizer
    Choi projectors; each side separately satisfies the trace-preservation
    marginal (its X, Y, Z components vanish), which together with the Choi
    reconstruction rows makes the optimal l1 norm equal 1 + 2p.  ``basis``
    may carry the optimal basis of a neighbouring channel's solve as a
    starting point.
    """
    if ch.d_in != 2 or ch.d_out != 2:
        raise DimensionMismatchError("channel robustness is implemented for qubit channels")
    target = pauli_vectorize(choi_of_channel(ch).matrix, _cached_paulis(2))
    A = _channel_constraints(atoms)
    b = np.concatenate([target, np.zeros(A.shape[0] - target.size)])
    solution = solve_l1(A, b, basis)
    logger.info("channel_robustness status=%s value=%.12g", solution.status, solution.value)
    return solution
