"""The two robustness linear programs and their one certified solve.

Both monotones are fixed l1 minimizations over a fixed atom set (Seddon &
Campbell, Proc. R. Soc. A 475, 20190251 (2019)):

* state robustness, ``rom_state``: min sum(a + b) over a, b >= 0 with
  sum_i (a_i - b_i) P_i = rho, over the pure stabilizer projectors P_i;
* channel robustness, ``channel_robustness``: the same over the 60
  two-qubit stabilizer Choi atoms, with each side's reference marginal
  held proportional to the identity (its X, Y, Z components vanish), which
  makes the optimal value 1 + 2p.

Both constraint matrices have full row rank.  The channel program has 19
rows, not 22: the Choi rows X (x) I, Y (x) I and Z (x) I are each half a
plus-side marginal row minus half a minus-side one, so it drops them.  A
channel's components there are the traceless part of its completeness
defect, which ``KrausChannel(...)`` bounds at ``Tolerances.completeness``,
100 times below ``lp_residual``; they do not reach the LP.

Hermitian data is expanded over the orthonormal Pauli basis, so the
solver sees exact real inputs.  Each program's constraint matrix depends
only on its atom set: ``_assemble_standard_form`` builds it once per set,
with the plus parts of the coefficients in the first half of the columns
and the minus parts in the second, and a solve builds only its right-hand
side.  ``solve_l1(A, b, starts)`` then runs the embedded simplex at unit
costs and certifies the answer.

Every call of ``rom_state`` or ``channel_robustness`` starts from its
program's reference starts, built with the constraint matrix and cached
with it: the optimal bases at a few fixed right-hand sides, stacked once
as one ``_simplex.Starts``.  The state program's are the maximally mixed
state, and for one qubit also the eight T-type magic states
(``_T_TYPE_STATES``).  The channel program's are the two ends of the
range the package scores of each of the two qubit channel families, and
fig3's minus branch (``_CHANNEL_REFERENCES``).  Reduced costs do not
depend on ``b``, so an optimal basis is optimal at every right-hand side
of its program where it stays primal feasible (a crash basis; Bixby, ORSA
J. Comput. 4, 267 (1992)).  A channel of either family anywhere in its
scored range, fig3's minus branch, and each state of fig2's sweep are
read off one of them with no pivot.  They depend on the atom set alone,
and no basis passes from one call to the next, so a call's result
depends on its own inputs alone, never on call order.  An atom set whose
program has no optimum at a reference leaves that reference out.

Both programs also take a grid (a channel or state with a leading axis)
and return one ``L1Solution`` for it, whose fields carry one entry per
grid entry, in order.  A block is the stack of its lone calls: each entry
compares every start at its own right-hand side b_j, x_B = B^-1 b_j, all
in one stacked mat-vec, and is read off the latest that serves it, with
no pivot.  An entry that none serves, as every entry of a call with no
starts, is solved by ``solve_standard_form`` from the all-artificial
basis, B = I.  Nothing passes from one entry to another, so each entry
gets every field of a lone call on it, bit for bit: the 51 channels (cos
t I - i sin t X) T, t in [0, 0.5], far from both families, take 1,961
dual pivots as one block, as many as their lone calls.  A single
right-hand side is a block of one, with scalar fields.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    Starts,
    WarmStart,
    dual_violation,
    optimal_start,
    reuse_basis,
    solve_standard_form,
)
from .channels import (
    DensityOperator,
    KrausChannel,
    _derived,
    choi_of_channel,
    log_renormalized,
    noisy_th_channel,
)
from .config import DEFAULT_TOL
from .gates import PAULI_X, PAULI_Y, PAULI_Z, T_GATE
from .linalg import DimensionMismatchError, pauli_basis, pauli_vectorize

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class L1Solution:
    """Solver output, for one right-hand side or a block of them.

    ``value`` is the optimal l1 norm (for the channel program this equals
    2p + 1 automatically, since the trace row forces sum a - sum b = 1).
    ``plus`` and ``minus`` are the two sides of the decomposition, one
    weight per atom.  ``residual``, ``dual_gap`` and ``dual_violation`` (the
    worst excess of A^T y over the unit costs) certify the value.
    ``warm_start`` is the optimal basis with its inverse, which, held in a
    ``Starts``, can serve a neighbouring problem; it is None when no
    optimum was found.
    ``standard_form`` is the pair ``(A, b)`` of the equality constraints
    ``A x = b, x >= 0`` it solved.  For one right-hand side the numbers are
    Python floats and ints and ``status`` is a str; for a block ``b`` of N
    rows every other field has a leading axis of N, ``status`` and
    ``warm_start`` as lists.  An entry that is not optimal is NaN.
    """

    value: float | np.ndarray
    status: str | list
    residual: float | np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    dual_gap: float | np.ndarray
    dual_violation: float | np.ndarray
    iterations: int | np.ndarray
    warm_start: WarmStart | list | None = None
    renorm_factor: float | np.ndarray = 1.0
    standard_form: tuple | None = None

    @property
    def checked_status(self) -> str | list:
        """``status``, except that an optimal entry whose residual, duality
        gap or dual infeasibility exceeds ``DEFAULT_TOL.lp_residual`` is
        ``check_failed``: a str, or a block's list of them."""
        failed = np.maximum(np.maximum(self.residual, self.dual_gap), self.dual_violation) > DEFAULT_TOL.lp_residual
        if isinstance(self.status, str):
            return "check_failed" if failed and self.status == "optimal" else self.status
        return ["check_failed" if fail and entry == "optimal" else entry
                for entry, fail in zip(self.status, failed.tolist())]


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


def solve_l1(A: np.ndarray, b: np.ndarray, starts=None, renorm_factor=1.0) -> L1Solution:
    """min sum(x) subject to A x = b, x >= 0, for a matrix from
    ``_assemble_standard_form``, with the embedded simplex.

    ``b`` is one right-hand side or a block of them, one per row; either
    gives one ``L1Solution``, a block's with one entry per row, each the
    lone call on its row.  ``starts`` is the ``Starts`` of the program,
    optimal bases of other solves of A stacked once, or None.  Each entry
    is read off the latest start that serves it (``reuse_basis``), with no
    pivot, and an entry that none serves is solved by
    ``solve_standard_form``, from the all-artificial basis.  ``solve_l1``
    knows no program's reference starts: ``rom_state`` and
    ``channel_robustness`` pass those.  ``renorm_factor`` (a number, or one
    per right-hand side) is reported on the solution.  Deterministic under
    the fixed atom ordering and ``starts``; the reconstruction residual,
    the duality gap and the dual feasibility of every entry, one read off
    a start too, are computed from A, x and y, each entry with the bits of
    its own products (an entry read off a start shares its y and its dual
    check), and ``L1Solution.checked_status`` holds them to one tolerance.
    """
    single = np.ndim(b) == 1
    b = np.asarray(b, dtype=np.float64).reshape(-1, A.shape[0])
    if not np.isfinite(b).all():
        raise ValueError("LP right-hand side is not finite")
    (m, n), rows = A.shape, len(b)
    c = np.ones(n)
    bases, served, x, objective, dual, violation = reuse_basis(A, b, starts)
    iterations, status = np.zeros(rows, dtype=int), ["optimal"] * rows
    pivoted = (~served).nonzero()[0]
    for j in pivoted:
        result = solve_standard_form(A, b[j], c)
        iterations[j], bases[j] = result.iterations, result.warm_start
        if result.status == STATUS_OPTIMAL:
            x[j], objective[j], dual[j] = result.x, result.objective, result.dual
        else:
            x[j], objective[j], dual[j] = np.nan, np.nan, np.nan
            status[j] = "infeasible" if result.status == STATUS_INFEASIBLE else "numerical_failure"
    violation[pivoted] = dual_violation(A, c, dual[pivoted])
    residual = np.abs((A @ x[:, :, None])[:, :, 0] - b).max(axis=1, initial=0.0)
    gap = np.abs(objective - (b * dual).sum(axis=1))
    factors = np.broadcast_to(np.asarray(renorm_factor, dtype=np.float64), rows)
    half = n // 2
    if single:
        return L1Solution(float(objective[0]), status[0], float(residual[0]), x[0, :half], x[0, half:], float(gap[0]),
                          float(violation[0]), int(iterations[0]), bases[0], float(factors[0]), (A, b[0]))
    return L1Solution(objective, status, residual, x[:, :half], x[:, half:], gap, violation, iterations, bases,
                      factors, (A, b))


def _reference_starts(A: np.ndarray, references):
    """The optimal ``WarmStart``s of the program ``A`` at the right-hand
    sides ``references``, each from the all-artificial basis
    (``_simplex.optimal_start``), stacked once as ``Starts`` with the last
    reference latest; empty when there are none.  A reference is only ever
    a start: every solve it starts checks it again and is certified.  A
    reference with no optimum, as for an atom set it lies outside of, is
    left out."""
    c = np.ones(A.shape[1])
    return Starts(A, c, [start for start in (optimal_start(A, b, c) for b in references) if start is not None][::-1])


# The eight T-type magic states (I + (+-X +- Y +- Z)/sqrt(3))/2 of one qubit
# (Bravyi & Kitaev, PRA 71, 022316 (2005)): each the pure state over the
# centre of one face of the stabilizer octahedron.
_T_TYPE_STATES = [(np.eye(2) + (x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / np.sqrt(3)) / 2
                  for x, y, z in itertools.product((1, -1), repeat=3)]


# Most atom sets whose program each of the two program caches keeps.  Both
# are keyed by the identity of the atom set, so equal sets built apart are
# apart in the cache; the package builds one set per program.
_CACHED_PROGRAMS = 8


@lru_cache(maxsize=_CACHED_PROGRAMS)
def _state_constraints(dictionary) -> tuple:
    """The state program's constraint matrix and its reference starts: the
    optimal bases at the eight T-type states for one qubit, then at the
    maximally mixed state, the latest."""
    paulis = pauli_basis(dictionary.n_qubits)
    A = _assemble_standard_form(pauli_vectorize(np.array(dictionary.projectors), paulis))
    magic = _T_TYPE_STATES if dictionary.n_qubits == 1 else []
    return A, _reference_starts(A, pauli_vectorize(np.array([*magic, np.eye(dictionary.dim) / dictionary.dim]), paulis))


def rom_state(rho: DensityOperator, dictionary) -> L1Solution:
    """Robustness of a state over a stabilizer dictionary.

    Every input is renormalized first; the factor is reported on the
    solution and logged when it is not 1.  Faithful: the value is 1 exactly when the
    state lies in the stabilizer polytope.  The solve starts from the
    program's reference starts.  A grid of states gives one solution with
    an entry per state, in order, each its lone call (``solve_l1``).  An
    infeasible LP, for any entry, raises.
    """
    rho, factor = rho.renormalized()
    log_renormalized(logger, "rom_state", factor)
    if rho.dim != dictionary.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} != dictionary dim {dictionary.dim}"
        )
    A, starts = _state_constraints(dictionary)
    target = pauli_vectorize(rho.matrix, pauli_basis(dictionary.n_qubits))
    solution = solve_l1(A, target, starts, factor)
    logger.debug("rom_state status=%s value=%s", solution.status, solution.value)
    # ``in`` finds "infeasible" in a block's list of statuses, or as the
    # one status, which is no other status's substring.
    if "infeasible" in solution.status:
        raise ValueError(
            "robustness LP infeasible: the state lies outside the linear span of the dictionary's projectors"
        )
    return solution


_CHOI_ROWS = np.delete(np.arange(16), [4, 8, 12])  # all of pauli_basis(2) but X, Y, Z (x) I


def _channel_rhs(choi: np.ndarray) -> np.ndarray:
    """The channel program's right-hand side for a Choi matrix, or for a
    stack of them: its kept reconstruction rows, then the six marginal
    rows at 0."""
    target = pauli_vectorize(choi, pauli_basis(2))[..., _CHOI_ROWS]
    return np.concatenate([target, np.zeros(target.shape[:-1] + (6,))], axis=-1)


def _depolarized_t_choi(q: float) -> np.ndarray:
    """The Choi matrix of the T gate behind depolarizing noise of strength
    q, in closed form: (1 - q) J_T + q I/4.  Two passes of strength p are
    one of strength q = 2p - p^2."""
    return (1 - q) * choi_of_channel(_derived(KrausChannel, np.array([T_GATE]))).matrix + q * np.eye(4) / 4


# The channel program's references: the Choi matrices at the two ends of
# the range the package scores of each qubit channel family, noisy TH on
# [0, 1] (fig2) and the T gate behind two depolarizing passes on
# [0, 0.45] (fig3), and fig3's minus branch, the T gate behind depolarizing
# noise of the p-independent strength 4/3.  The minus branch comes first,
# so that it loses every tie.  Each
# is written down complete, as the zoo writes noisy TH, so building them
# runs no completeness check.
_CHANNEL_REFERENCES = {
    "depolarized T, q = 4/3: fig3's minus branch": lambda: _depolarized_t_choi(4 / 3),
    "noisy TH, p = 0: the T H gate": lambda: choi_of_channel(noisy_th_channel(0.0)).matrix,
    "noisy TH, p = 1: measure and prepare": lambda: choi_of_channel(noisy_th_channel(1.0)).matrix,
    "depolarized T, p = 0: the T gate": lambda: _depolarized_t_choi(0.0),
    "depolarized T, p = 0.45: the end of fig3's grid": lambda: _depolarized_t_choi(2 * 0.45 - 0.45 * 0.45),
}


@lru_cache(maxsize=_CACHED_PROGRAMS)
def _channel_constraints(atoms) -> tuple:
    """The channel program's constraint matrix and its reference starts.

    The matrix holds the 13 kept Choi reconstruction rows, then for each
    of X, Y, Z one marginal row over the plus side and one over the minus
    side.  The starts are the optimal bases at the Choi matrices of
    ``_CHANNEL_REFERENCES``."""
    vectors = pauli_vectorize(np.array([a.projector for a in atoms]), pauli_basis(2))[:, _CHOI_ROWS]
    marginals = np.array([a.marginal for a in atoms])
    # tr(P m) for each Pauli P and each atom marginal m.
    marginal_rows = np.einsum("pij,aji->pa", np.array([PAULI_X, PAULI_Y, PAULI_Z]), marginals).real
    A = _assemble_standard_form(vectors, marginal_rows)
    return A, _reference_starts(A, _channel_rhs(np.array([choi() for choi in _CHANNEL_REFERENCES.values()])))


def channel_robustness(ch: KrausChannel, atoms) -> L1Solution:
    """Channel robustness of a single-qubit channel over Choi atoms.

    The two sides of the decomposition are conic combinations of stabilizer
    Choi projectors; each side separately satisfies the trace-preservation
    marginal (its X, Y, Z components vanish), which together with the Choi
    reconstruction rows makes the optimal l1 norm equal 1 + 2p.  The solve
    starts from the program's reference starts.  A grid of channels gives
    one solution with an entry per channel, in order, each its lone call
    (``solve_l1``).
    """
    if ch.d_in != 2 or ch.d_out != 2:
        raise DimensionMismatchError("channel robustness is implemented for qubit channels")
    A, starts = _channel_constraints(atoms)
    solution = solve_l1(A, _channel_rhs(choi_of_channel(ch).matrix), starts)
    logger.debug("channel_robustness status=%s value=%s", solution.status, solution.value)
    return solution
