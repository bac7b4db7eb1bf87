import numpy as np
import pytest

from magicswitch import (
    DensityOperator,
    KrausChannel,
    build_frame,
    compose_channels,
    cspo_choi_atoms,
    depolarizing_channel,
    effective_t_channels,
    enumerate_stabilizer_states,
    noisy_th_channel,
    unitary_channel,
)
from magicswitch.config import DEFAULT_TOL
from magicswitch.gates import T_GATE
from magicswitch.linalg import tensor
from magicswitch.qswitch import EffectiveDepolarizingSwitch

# Clifford generators the tests build stabilizer orbits and Clifford
# conjugations from; the package itself needs none of them.
PHASE_S = np.diag([1.0, 1.0j]).astype(complex)
CNOT_01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT_10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)


@pytest.fixture(scope="session")
def qubit_dict():
    return enumerate_stabilizer_states(1)


@pytest.fixture(scope="session")
def twoq_dict():
    return enumerate_stabilizer_states(2)


@pytest.fixture(scope="session")
def choi_atoms(twoq_dict):
    return cspo_choi_atoms(twoq_dict)


@pytest.fixture(scope="session")
def frame3():
    return build_frame(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_density_matrix(d, rng, rank=None):
    """Ginibre-induced random state, optionally rank-limited."""
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_kraus_channel(d, n_ops, rng):
    """Random complete Kraus set: normalize raw Ginibre blocks by the
    inverse square root of their completeness sum."""
    blocks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_ops)]
    total = sum(b.conj().T @ b for b in blocks)
    eigvals, eigvecs = np.linalg.eigh(total)
    inv_sqrt = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.conj().T
    return KrausChannel(tuple(b @ inv_sqrt for b in blocks))


def fig2_fig3_channels():
    """The channels whose robustness fig2 and fig3 plot, on a coarse p grid:
    the noisy TH channel, and the T gate behind sequential and switched
    depolarizing noise (both switch branches)."""
    for p in np.linspace(0.0, 1.0, 6):
        yield noisy_th_channel(p)
    for p in np.linspace(0.0, 0.45, 4):
        noise = depolarizing_channel(2, p)
        yield compose_channels(noise, compose_channels(noise, unitary_channel(T_GATE)))
        for branch in effective_t_channels(p):
            yield branch.channel


def pivot_walks(monkeypatch, run):
    """Run ``run()``; return its result and the (status, iterations) of every
    simplex pivot loop it ran, in order: each solve runs phase 1, then
    phase 2."""
    from magicswitch import _simplex

    walks = []
    pivot_loop = _simplex.bland_pivot_loop

    def recorder(*args):
        walks.append(pivot_loop(*args))
        return walks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(_simplex, "bland_pivot_loop", recorder)
        result = run()
    return result, walks


# ---------------------------------------------------------------------------
# Oracles shared by several test modules
# ---------------------------------------------------------------------------

def operators_close(a, b, tol=DEFAULT_TOL.eq):
    """Entrywise equality within an absolute tolerance."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.abs(a - b).max() <= tol)


def extend_with_reference(ch, d_ref):
    """id_ref (x) channel: an idle reference system tensored on the left."""
    return KrausChannel([tensor(np.eye(d_ref, dtype=complex), K) for K in ch.kraus_ops])


def depolarizing_switch_closed_form(d, p, rho):
    """Closed-form conditional branches of switched depolarizing noise: the
    unnormalized (plus, minus) states weight_pm * D_{p_pm}(rho), which must
    agree entrywise with the generic Kraus construction of the switch."""
    eff = EffectiveDepolarizingSwitch.from_noise(d, p)

    def depolarize(strength):
        return strength * np.trace(rho.matrix) * np.eye(d) / d + (1 - strength) * rho.matrix

    plus = eff.weight_plus * depolarize(eff.p_plus)
    minus = eff.weight_minus * depolarize(eff.p_minus)
    return (
        DensityOperator(plus, normalized=abs(np.trace(plus).real - 1) <= DEFAULT_TOL.psd),
        DensityOperator(minus, normalized=False),
    )
