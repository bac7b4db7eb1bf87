"""Enumeration of pure stabilizer states for one and two qubits.

The dictionary of stabilizer projectors is the atom set for both robustness
linear programs.  A pure stabilizer state on n qubits is fixed by n signed,
independent, commuting Pauli strings g_k: its projector is
prod_k (I + s_k g_k) / 2 (Aaronson & Gottesman, PRA 70, 052328 (2004)).
The states are therefore written down directly: every maximal commuting
set of non-identity Pauli strings, generated by its n lexicographically
smallest members, times every sign choice.  The label ("+IX,-XI") is that
signed generating set, so the ordering is deterministic, and the
projector entries are exact dyadic numbers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import DimensionMismatchError, partial_trace, pauli_strings


def _pauli_product(a: str, b: str) -> str:
    """The Pauli string a b up to phase: numbering I, X, Y, Z as 0..3 makes
    each one-qubit product the bitwise XOR of the two numbers."""
    return "".join("IXYZ"["IXYZ".index(p) ^ "IXYZ".index(q)] for p, q in zip(a, b))


def _commute(a: str, b: str) -> bool:
    # Letters that differ, neither of them I, anticommute; an even count commutes.
    return sum(p != q and "I" not in (p, q) for p, q in zip(a, b)) % 2 == 0


def _canonical_generators(n_qubits: int):
    """Yield each maximal commuting set of non-identity Pauli strings as its
    n lexicographically smallest members, which generate it."""
    strings = ["".join(c) for c in itertools.product("IXYZ", repeat=n_qubits)]
    for gens in itertools.combinations(strings[1:], n_qubits):
        group = {strings[0]}
        for g in gens:
            group |= {_pauli_product(g, h) for h in group}
        commuting = all(_commute(a, b) for a, b in itertools.combinations(gens, 2))
        # The identity sorts first, so the next n members are the generators.
        if commuting and len(group) == 2**n_qubits and sorted(group)[1 : n_qubits + 1] == list(gens):
            yield gens


@dataclass(frozen=True, eq=False)
class StabilizerDictionary:
    """All pure stabilizer projectors on ``n_qubits`` qubits.

    ``projectors[k]`` corresponds to ``labels[k]``; ordering is sorted by
    label, so LP atom order (and hence every LP answer) is reproducible.
    """

    n_qubits: int
    projectors: tuple
    labels: tuple

    def __len__(self) -> int:
        return len(self.projectors)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@lru_cache(maxsize=None)
def enumerate_stabilizer_states(n_qubits: int) -> StabilizerDictionary:
    """Build the complete stabilizer dictionary for ``n_qubits`` in {1, 2}.

    Counts follow 2^n prod_{k=1..n} (2^k + 1): 6 single-qubit states, 60
    two-qubit states.  The count is verified after enumeration.
    """
    if n_qubits not in (1, 2):
        raise ValueError(f"n_qubits={n_qubits} unsupported; only 1 and 2 are enumerated")
    paulis = dict(pauli_strings(n_qubits))
    eye = paulis["I" * n_qubits]
    states = {}
    for gens in _canonical_generators(n_qubits):
        for signs in itertools.product("+-", repeat=n_qubits):
            proj = eye
            for sign, g in zip(signs, gens):
                proj = proj @ (eye + paulis[g] if sign == "+" else eye - paulis[g]) / 2
            states[",".join(s + g for s, g in zip(signs, gens))] = proj
    expected = 2**n_qubits
    for k in range(1, n_qubits + 1):
        expected *= 2**k + 1
    if len(states) != expected:
        raise RuntimeError(f"enumerated {len(states)} states, expected {expected}")
    labels = tuple(sorted(states))
    ordered = tuple(states[label] for label in labels)
    for P in ordered:
        P.setflags(write=False)
    return StabilizerDictionary(n_qubits=n_qubits, projectors=ordered, labels=labels)


@dataclass(frozen=True, eq=False)
class ChoiAtom:
    """A two-qubit stabilizer projector viewed as a Choi-space atom.

    ``marginal`` is the partial trace over the output (second) factor; the
    channel-robustness LP constrains mixtures of these marginals to be
    proportional to the identity.
    """

    projector: np.ndarray
    marginal: np.ndarray


# Most dictionaries whose atoms ``cspo_choi_atoms`` keeps.  It is keyed by
# the identity of the dictionary, so equal dictionaries built apart are
# apart in the cache; the package builds one two-qubit dictionary.
_CACHED_ATOM_SETS = 8


@lru_cache(maxsize=_CACHED_ATOM_SETS)
def cspo_choi_atoms(dictionary: StabilizerDictionary) -> tuple:
    """Pair each two-qubit stabilizer projector with its output marginal."""
    if dictionary.n_qubits != 2:
        raise DimensionMismatchError("Choi atoms need the two-qubit dictionary")
    atoms = []
    for proj in dictionary.projectors:
        marginal = partial_trace(proj, [2, 2], keep=0)
        marginal.setflags(write=False)
        atoms.append(ChoiAtom(projector=proj, marginal=marginal))
    return tuple(atoms)

