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
side.  ``solve_l1(A, b)`` then runs the embedded simplex at unit costs and
certifies the answer.  A solve starts from the one start form the simplex
takes, a ``WarmStart``: the ``basis`` its caller holds, the
``warm_start`` of a solve of the same program at a neighbouring
right-hand side.  A caller that holds several such bases, as a sweep run
or a threshold search does for each LP column, passes them all, a tuple
of ``WarmStart``s, latest first, and the solve starts from the one least
infeasible for its right-hand side (``_simplex.reuse_basis``): one that
serves it, where any does.  Which bases are held is this module's rule
too: a walk folds each basis it reaches into what it holds by ``_hold``,
which keeps the last four distinct ones once it reaches a basis it did
not hold (a walk that reaches none still holds all of its program's
reference starts, up to nine), and hands back the set it ends with as
``L1Solution.held``, which the caller stores as it is.

A caller of ``rom_state`` or ``channel_robustness`` that holds no basis
starts from its program's reference starts, built with the constraint
matrix and cached with it: the optimal bases at a few fixed right-hand
sides, held as one such tuple.  The state program's are the maximally
mixed state, and for one qubit also the eight T-type magic states
(``_T_TYPE_STATES``).  The channel program's are the two ends of the
range the package scores of each of the two qubit channel families, and
fig3's minus branch (``_CHANNEL_REFERENCES``).  Reduced costs do not
depend on ``b``, so an optimal basis is dual feasible at every right-hand
side of its program, and a dual simplex can start from it (a crash basis;
Bixby, ORSA J. Comput. 4, 267 (1992)).  A channel of either family
anywhere in its scored range, fig3's minus branch, and each state of
fig2's sweep are read off one of them with no pivot.  They also save
pivots for a channel far from both families: over 100 random Kraus
channels and 50 Haar-random unitaries the repairs take 4,407 dual pivots
where B = I takes 5,988.  They depend on the atom
set alone, never on an earlier call, so no result depends on call order.
An atom set whose program has no optimum at a reference leaves that
reference out; one with none starts cold, from the all-artificial basis,
as ``solve_l1`` with no basis does.

Both programs also take a grid (a channel or state with a leading axis)
and return one ``L1Solution`` for it, whose fields carry one entry per
grid entry, in order: one warm walk down the column of right-hand sides,
with one start rule for every entry.  At entry j the walk compares every
basis it holds at ``b_j`` and takes the least infeasible
(``_simplex.reuse_basis``); ``B^-1 [b_j ... b_N]``, one stacked mat-vec,
reads off every entry from j on that this basis serves, with no pivot.
An entry that no held basis serves must pivot: ``solve_standard_form``
solves it from the least infeasible one (repaired by dual pivots), or
from the all-artificial basis when none is held.  After each entry, the
walk folds the basis it reached into what it holds (``_hold``); an entry
with no optimum adds nothing.  Each entry gets the solution, and the
certificates, that a lone solve of it from the bases the walk held before
it gives; a single right-hand side is the walk of one, with scalar
fields.
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
    WarmStart,
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
    ``warm_start`` is the optimal basis with its inverse, which can start the
    solve of a neighbouring problem; it is None when no optimum was found.
    ``standard_form`` is the pair ``(A, b)`` of the equality constraints
    ``A x = b, x >= 0`` it solved.  For one right-hand side the numbers are
    Python floats and ints and ``status`` is a str; for a block ``b`` of N
    rows every other field has a leading axis of N, ``status`` and
    ``warm_start`` as lists.  An entry that is not optimal is NaN.
    ``held`` is the tuple of ``WarmStart``s the walk held after its last
    entry, latest first, or () for none: what a caller that walks on from
    here passes back as ``basis``, as it is.
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
    held: tuple = ()

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


def solve_l1(A: np.ndarray, b: np.ndarray, basis=None, renorm_factor=1.0) -> L1Solution:
    """min sum(x) subject to A x = b, x >= 0, for a matrix from
    ``_assemble_standard_form``, with the embedded simplex.

    ``b`` is one right-hand side or a block of them, one per row; either
    gives one ``L1Solution``, a block's with one entry per row.  A block is
    the warm walk of the module docstring, from ``basis``: each entry starts
    from the least infeasible of the bases the walk holds
    (``reuse_basis``), and only an entry none of them serves reaches
    ``solve_standard_form``.  ``basis`` is None, the ``WarmStart`` of a
    solve of the same program, or several bases a run holds, a sequence of
    ``WarmStart``s, latest first, as an earlier solution's ``held`` or the
    reference starts are; the walk folds each basis it reaches into them by
    ``_hold`` and ends with ``L1Solution.held``.  An entry with no optimum
    leaves them as they are.  None or an empty sequence is a cold start,
    from the all-artificial basis: ``solve_l1`` knows no program's
    reference starts, and ``rom_state`` and ``channel_robustness`` pass
    those in place of an empty ``basis``.
    ``renorm_factor`` (a number, or one per right-hand side) is reported on
    the solution.  Deterministic under the fixed atom ordering and
    ``basis`` (see ``solve_standard_form``); the reconstruction residual,
    the duality gap and the dual feasibility of every entry, a reused
    ``WarmStart``'s too, are computed once per call from A, x and y, each
    entry with the bits of its own mat-vecs, and
    ``L1Solution.checked_status`` holds them to one tolerance.
    """
    single = np.ndim(b) == 1
    b = np.asarray(b, dtype=np.float64).reshape(-1, A.shape[0])
    if not np.isfinite(b).all():
        raise ValueError("LP right-hand side is not finite")
    (m, n), rows = A.shape, len(b)
    c = np.ones(n)
    held = (basis,) if isinstance(basis, WarmStart) else tuple(basis or ())
    x, dual = np.empty((rows, n)), np.empty((rows, m))
    objective, iterations = np.empty(rows), np.zeros(rows, dtype=int)
    status, starts = ["optimal"] * rows, [None] * rows
    j = 0
    while j < rows:
        start = None
        if held:
            start, served, *read = reuse_basis(A, b[j:], c, held)
            if served:
                x[j : j + served], objective[j : j + served], dual[j : j + served] = read
                starts[j : j + served] = [start] * served
                j += served
                held = _hold(held, start)
                continue
        result = solve_standard_form(A, b[j], c, basis=start)
        iterations[j] = result.iterations
        if result.status == STATUS_OPTIMAL:
            x[j], objective[j], dual[j], starts[j] = result.x, result.objective, result.dual, result.warm_start
        else:
            x[j], objective[j], dual[j] = np.nan, np.nan, np.nan
            status[j] = "infeasible" if result.status == STATUS_INFEASIBLE else "numerical_failure"
        held = _hold(held, starts[j])
        j += 1
    residual = np.abs((A @ x[:, :, None])[:, :, 0] - b).max(axis=1, initial=0.0)
    gap = np.abs(objective - (b[:, None, :] @ dual[:, :, None])[:, 0, 0])
    violation = np.maximum(0.0, ((A.T @ dual[:, :, None])[:, :, 0] - c).max(axis=1))
    factors = np.broadcast_to(np.asarray(renorm_factor, dtype=np.float64), rows)
    half = n // 2
    if single:
        return L1Solution(float(objective[0]), status[0], float(residual[0]), x[0, :half], x[0, half:], float(gap[0]),
                          float(violation[0]), int(iterations[0]), starts[0], float(factors[0]), (A, b[0]), held)
    return L1Solution(objective, status, residual, x[:, :half], x[:, half:], gap, violation, iterations, starts,
                      factors, (A, b), held)


# Most distinct optimal bases a caller holds for one program.
_HELD_BASES = 4


def _hold(held, start):
    """The bases a walk holds next: the tuple of ``WarmStart``s ``held``,
    latest first, with ``start`` as its latest basis.  A None, or the basis
    already latest, adds nothing: ``held`` itself.  A start ``held`` holds
    elsewhere (the same object) moves to the front.  A new one drops an
    older entry with the same basic columns, and only the last
    ``_HELD_BASES`` stay, latest first, the order in which ``reuse_basis``
    breaks ties.  ``solve_l1`` folds in each entry of a walk, so a sweep
    run or a threshold search that passes its ``held`` back holds, block
    after block, what one walk of all its points would."""
    if start is None or (held and held[0] is start):
        return held
    if any(other is start for other in held):
        return (start, *(other for other in held if other is not start))
    columns = set(start.basis.tolist())
    return (start, *(other for other in held if set(other.basis.tolist()) != columns))[:_HELD_BASES]


def _reference_starts(A: np.ndarray, references):
    """The optimal ``WarmStart``s of the program ``A`` at the right-hand
    sides ``references``, each from the all-artificial basis
    (``_simplex.optimal_start``), as a tuple with the last reference
    latest; () when there are none.  A reference is only ever a start:
    every solve it starts checks it again and is certified.  A reference
    with no optimum, as for an atom set it lies outside of, is left out."""
    c = np.ones(A.shape[1])
    return tuple(start for start in (optimal_start(A, b, c) for b in references) if start is not None)[::-1]


# The eight T-type magic states (I + (+-X +- Y +- Z)/sqrt(3))/2 of one qubit
# (Bravyi & Kitaev, PRA 71, 022316 (2005)): each the pure state over the
# centre of one face of the stabilizer octahedron.
_T_TYPE_STATES = [(np.eye(2) + (x * PAULI_X + y * PAULI_Y + z * PAULI_Z) / np.sqrt(3)) / 2
                  for x, y, z in itertools.product((1, -1), repeat=3)]


@lru_cache(maxsize=None)
def _state_constraints(dictionary) -> tuple:
    """The state program's constraint matrix and its reference starts: the
    optimal bases at the eight T-type states for one qubit, then at the
    maximally mixed state, the latest."""
    paulis = pauli_basis(dictionary.n_qubits)
    A = _assemble_standard_form(pauli_vectorize(np.array(dictionary.projectors), paulis))
    magic = _T_TYPE_STATES if dictionary.n_qubits == 1 else []
    return A, _reference_starts(A, pauli_vectorize(np.array([*magic, np.eye(dictionary.dim) / dictionary.dim]), paulis))


def rom_state(rho: DensityOperator, dictionary, basis=None) -> L1Solution:
    """Robustness of a state over a stabilizer dictionary.

    Every input is renormalized first; the factor is reported on the
    solution and logged when it is not 1.  Faithful: the value is 1 exactly when the
    state lies in the stabilizer polytope.  ``basis`` may carry the
    ``warm_start`` of a neighbouring state's solve, or several held bases
    (a tuple of ``WarmStart``s), as a starting point; with none, the solve
    starts from the program's reference starts.  A grid of states gives one
    solution with an entry per state, in order, from one warm walk
    (``solve_l1``).  An infeasible LP, for any entry, raises.
    """
    rho, factor = rho.renormalized()
    log_renormalized(logger, "rom_state", factor)
    if rho.dim != dictionary.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} != dictionary dim {dictionary.dim}"
        )
    A, starts = _state_constraints(dictionary)
    target = pauli_vectorize(rho.matrix, pauli_basis(dictionary.n_qubits))
    solution = solve_l1(A, target, basis or starts, factor)
    logger.debug("rom_state status=%s value=%s", solution.status, solution.value)
    # ``in`` finds "infeasible" in a block's list of statuses, or as the
    # one status, which is no other status's substring.
    if "infeasible" in solution.status:
        raise ValueError("robustness LP infeasible: input is not a valid state")
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
# so that it loses every tie and is the first that ``_hold`` drops.  Each
# is written down complete, as the zoo writes noisy TH, so building them
# runs no completeness check.
_CHANNEL_REFERENCES = {
    "depolarized T, q = 4/3: fig3's minus branch": lambda: _depolarized_t_choi(4 / 3),
    "noisy TH, p = 0: the T H gate": lambda: choi_of_channel(noisy_th_channel(0.0)).matrix,
    "noisy TH, p = 1: measure and prepare": lambda: choi_of_channel(noisy_th_channel(1.0)).matrix,
    "depolarized T, p = 0: the T gate": lambda: _depolarized_t_choi(0.0),
    "depolarized T, p = 0.45: the end of fig3's grid": lambda: _depolarized_t_choi(2 * 0.45 - 0.45 * 0.45),
}


@lru_cache(maxsize=None)
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


def channel_robustness(ch: KrausChannel, atoms, basis=None) -> L1Solution:
    """Channel robustness of a single-qubit channel over Choi atoms.

    The two sides of the decomposition are conic combinations of stabilizer
    Choi projectors; each side separately satisfies the trace-preservation
    marginal (its X, Y, Z components vanish), which together with the Choi
    reconstruction rows makes the optimal l1 norm equal 1 + 2p.  ``basis``
    may carry the ``warm_start`` of a neighbouring channel's solve, or
    several held bases (a tuple of ``WarmStart``s), as a starting point;
    with none, the solve starts from the program's reference starts.  A grid of
    channels gives one solution with an entry per channel, in order, from
    one warm walk (``solve_l1``).
    """
    if ch.d_in != 2 or ch.d_out != 2:
        raise DimensionMismatchError("channel robustness is implemented for qubit channels")
    A, starts = _channel_constraints(atoms)
    solution = solve_l1(A, _channel_rhs(choi_of_channel(ch).matrix), basis or starts)
    logger.debug("channel_robustness status=%s value=%s", solution.status, solution.value)
    return solution
