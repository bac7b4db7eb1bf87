"""Robustness monotones as l1-minimization linear programs.

Two programs share one solver contract: the state robustness (minimal l1
norm of quasiprobabilities decomposing a state over pure stabilizer
projectors) and the channel robustness (minimal 2p + 1 over differences of
completely stabilizer-preserving channels, parameterized by stabilizer
Choi atoms with explicit trace-preservation marginals).

All Hermitian data is expanded over the orthonormal Pauli basis, so the
solver sees exact real inputs and the trace-preservation rows stay sparse.
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
class ExtraEquality:
    """One extra equality row sum_i (plus_i a_i + minus_i b_i) = rhs over the
    split coefficient pair (a_i, b_i) of each atom."""

    plus_coeffs: np.ndarray
    minus_coeffs: np.ndarray
    rhs: float


@dataclass(frozen=True, eq=False)
class AffineL1Problem:
    """min ||q||_1 subject to sum_i q_i atom_i = target plus extra equalities.

    The coefficients are free reals handled as q_i = a_i - b_i with
    a, b >= 0.  ``atoms`` holds real vectorized operators, one row per atom.
    """

    atoms: np.ndarray
    target: np.ndarray
    extra_equalities: tuple = ()

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        target = np.asarray(self.target, dtype=float)
        if atoms.ndim != 2:
            raise ValueError("atoms must be a 2-d array (one row per atom)")
        if target.shape != (atoms.shape[1],):
            raise DimensionMismatchError(
                f"target length {target.shape} != atom vector length {atoms.shape[1]}"
            )
        for eq in self.extra_equalities:
            if eq.plus_coeffs.shape != (atoms.shape[0],) or eq.minus_coeffs.shape != (atoms.shape[0],):
                raise DimensionMismatchError("extra equality coefficient length != atom count")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "target", target)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


@dataclass(frozen=True, eq=False)
class L1Solution:
    """Solver output.

    ``value`` is the optimal l1 norm (for the channel program this equals
    2p + 1 automatically, since the trace row forces sum a - sum b = 1).
    ``coefficients`` are the net per-atom weights a_i - b_i; the split parts
    are kept for consumers that need each side of a channel decomposition.
    ``residual``, ``dual_gap`` and ``dual_violation`` (the worst excess of
    A^T y over c) certify the value.  ``basis`` is the optimal simplex
    basis, which can start the solve of a neighbouring problem; it is None
    when no optimum was found.  ``standard_form`` is the pair ``(A, b)`` of
    the equality constraints ``A x = b, x >= 0`` it solved, with unit costs.
    """

    value: float
    coefficients: np.ndarray
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


def _assemble_standard_form(problem: AffineL1Problem):
    A_atoms = problem.atoms.T  # (dim, n_atoms)
    A = np.hstack([A_atoms, -A_atoms])
    extra_rows = [
        np.concatenate([eq.plus_coeffs, eq.minus_coeffs]) for eq in problem.extra_equalities
    ]
    if extra_rows:
        A = np.vstack([A, np.array(extra_rows)])
    b = np.concatenate(
        [problem.target, [eq.rhs for eq in problem.extra_equalities]]
    )
    c = np.ones(A.shape[1])
    return A, b, c


def solve_l1(
    problem: AffineL1Problem, max_iter: int | None = None, basis: np.ndarray | None = None
) -> L1Solution:
    """Solve the l1 program with the embedded simplex.

    Deterministic under the fixed atom ordering and the starting ``basis``
    (see ``solve_standard_form``); the reconstruction residual, the duality
    gap and the dual feasibility of the returned basic solution are
    reported so callers can enforce their own floors.
    """
    A, b, _ = _assemble_standard_form(problem)
    return _solve_assembled(A, b, max_iter, basis)


def _solve_assembled(A, b, max_iter, basis) -> L1Solution:
    """``solve_l1`` on the assembled constraints ``A x = b``, whose columns
    are the plus then the minus part of each atom's coefficient."""
    c = np.ones(A.shape[1])
    result = solve_standard_form(A, b, c, max_iter=max_iter, basis=basis)
    n = A.shape[1] // 2
    if result.status == STATUS_INFEASIBLE:
        status = "infeasible"
    elif result.status == STATUS_OPTIMAL:
        status = "optimal"
    else:
        status = "numerical_failure"
    if status != "optimal":
        nanvec = np.full(n, np.nan)
        return L1Solution(
            np.nan, nanvec, status, np.nan, nanvec, nanvec, np.nan, np.nan, result.iterations
        )
    plus, minus = result.x[:n], result.x[n:]
    coeffs = plus - minus
    residual = float(np.abs(A @ result.x - b).max())
    dual_gap = float(abs(result.objective - result.dual @ b))
    dual_violation = float(max(0.0, (A.T @ result.dual - c).max()))
    return L1Solution(
        value=float(result.objective),
        coefficients=coeffs,
        status=status,
        residual=residual,
        plus=plus,
        minus=minus,
        dual_gap=dual_gap,
        dual_violation=dual_violation,
        iterations=result.iterations,
        basis=result.basis,
        standard_form=(A, b),
    )


@lru_cache(maxsize=None)
def _cached_paulis(n_qubits: int):
    return pauli_strings(n_qubits)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The constraint matrix of each program depends only on its atom set, so it
# is assembled once per set and shared read-only; a solve builds only b.

@lru_cache(maxsize=None)
def _state_constraints(dictionary) -> np.ndarray:
    paulis = _cached_paulis(dictionary.n_qubits)
    atoms = np.array([pauli_vectorize(P, paulis) for P in dictionary.projectors])
    problem = AffineL1Problem(atoms=atoms, target=np.zeros(atoms.shape[1]))
    return _read_only(_assemble_standard_form(problem)[0])


def rom_state(
    rho: DensityOperator, dictionary, max_iter: int | None = None, basis: np.ndarray | None = None
) -> L1Solution:
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
    paulis = _cached_paulis(dictionary.n_qubits)
    target = pauli_vectorize(rho.matrix, paulis)
    A = _state_constraints(dictionary)
    solution = _solve_assembled(A, target, max_iter, basis)
    logger.info("rom_state status=%s value=%.12g", solution.status, solution.value)
    if solution.status == "infeasible":
        raise ValueError("robustness LP infeasible: input is not a valid state")
    return replace(solution, renorm_factor=factor)


@lru_cache(maxsize=None)
def _channel_constraints(atoms) -> np.ndarray:
    """Choi reconstruction rows, then for each of X, Y, Z one marginal row
    over the plus side and one over the minus side."""
    paulis = _cached_paulis(2)
    atom_matrix = np.array([pauli_vectorize(a.projector, paulis) for a in atoms])
    zeros = np.zeros(atom_matrix.shape[0])
    extras = []
    for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
        row = np.array([np.trace(pauli @ a.marginal).real for a in atoms])
        extras.append(ExtraEquality(plus_coeffs=row, minus_coeffs=zeros, rhs=0.0))
        extras.append(ExtraEquality(plus_coeffs=zeros, minus_coeffs=row, rhs=0.0))
    problem = AffineL1Problem(
        atoms=atom_matrix, target=np.zeros(atom_matrix.shape[1]), extra_equalities=tuple(extras)
    )
    return _read_only(_assemble_standard_form(problem)[0])


def channel_robustness(
    ch: KrausChannel, atoms, max_iter: int | None = None, basis: np.ndarray | None = None
) -> L1Solution:
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
    choi = choi_of_channel(ch)
    paulis = _cached_paulis(2)
    target = pauli_vectorize(choi.matrix, paulis)
    A = _channel_constraints(atoms)
    b = np.concatenate([target, np.zeros(A.shape[0] - target.size)])
    solution = _solve_assembled(A, b, max_iter, basis)
    logger.info("channel_robustness status=%s value=%.12g", solution.status, solution.value)
    return solution


def problem_to_lp_text(problem: AffineL1Problem, name: str = "l1min") -> str:
    """Render the program in CPLEX LP text format for external cross-checks."""
    A, b, _ = _assemble_standard_form(problem)
    n_cols = A.shape[1]
    names = [f"x{j}" for j in range(n_cols)]
    lines = [f"\\ {name}: min l1 over {problem.n_atoms} atoms", "Minimize", " obj: " + " + ".join(names)]
    lines.append("Subject To")
    for i in range(A.shape[0]):
        terms = []
        for j in range(n_cols):
            coef = A[i, j]
            if coef != 0.0:
                terms.append(f"{'+' if coef >= 0 else '-'} {abs(coef):.17g} {names[j]}")
        row = " ".join(terms) if terms else "0 x0"
        lines.append(f" c{i}: {row} = {b[i]:.17g}")
    lines.append("Bounds")
    for nm in names:
        lines.append(f" 0 <= {nm}")
    lines.append("End")
    return "\n".join(lines) + "\n"
