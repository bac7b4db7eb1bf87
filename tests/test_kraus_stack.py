"""The Kraus-stack kernels against the per-operator loops they replace, and
the once-per-object checks.

Each kernel must give the same bits as its loop: the reference loops below
are the earlier implementations, kept here as oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicswitch import (
    KrausChannel,
    build_frame,
    build_switch,
    choi_of_channel,
    compose_channels,
    qutrit_noisy_th_channel,
    wigner_of_channel,
)
from magicswitch import channels, experiments, qswitch
from magicswitch.channels import ChannelCompletenessError, apply_kraus, plus_density
from magicswitch.linalg import DimensionMismatchError, tensor

PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# Loop references
# ---------------------------------------------------------------------------

def loop_apply(kraus_ops, matrix):
    out = np.zeros((kraus_ops[0].shape[0], kraus_ops[0].shape[0]), dtype=complex)
    for K in kraus_ops:
        out += K @ matrix @ K.conj().T
    return out


def loop_compose(outer, inner):
    return [O @ I for O in outer.kraus_ops for I in inner.kraus_ops]


def loop_choi(ch):
    d_in, d_out = ch.d_in, ch.d_out
    J = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for K in ch.kraus_ops:
        v = np.zeros(d_in * d_out, dtype=complex)
        for i in range(d_in):
            v[i * d_out : (i + 1) * d_out] = K[:, i]
        J += np.outer(v, v.conj())
    return J / d_in


def loop_switch(a, b):
    d = a.d_in
    ops = []
    for E in a.kraus_ops:
        for F in b.kraus_ops:
            op = np.zeros((2 * d, 2 * d), dtype=complex)
            op[:d, :d] = E @ F
            op[d:, d:] = F @ E
            ops.append(op)
    return ops


def loop_wigner(ch, frame):
    """The Choi-route contraction, one (u, v) entry at a time."""
    n, d = frame.d**2, frame.d
    j4 = choi_of_channel(ch).matrix.reshape(d, d, d, d)
    wig = np.empty((n, n))
    for u in range(n):
        for v in range(n):
            entry = np.einsum("ji,ab,jbia->", frame.phase_points[u], frame.phase_points[v], j4)
            wig[v, u] = entry.real
    return wig


def loop_residual(ch):
    total = sum(K.conj().T @ K for K in ch.kraus_ops)
    return float(np.abs(total - np.eye(ch.d_in)).max())


# ---------------------------------------------------------------------------
# Random channels: k Kraus operators cut from a random (k d, d) isometry
# ---------------------------------------------------------------------------

def isometry_channel(d, k, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(k * d, d)) + 1j * rng.normal(size=(k * d, d))
    q, _ = np.linalg.qr(g)
    return KrausChannel(q.reshape(k, d, d))


seeds = st.integers(0, 2**32 - 1)
kraus_counts = st.integers(1, 9)
qubit_or_qutrit = st.sampled_from([2, 3])


class TestKernelsMatchLoops:
    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, seeds)
    def test_apply(self, d, k, seed):
        ch = isometry_channel(d, k, seed)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        assert np.array_equal(apply_kraus(ch.kraus_ops, m), loop_apply(list(ch.kraus_ops), m))

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds)
    def test_compose(self, d, k_outer, k_inner, seed):
        outer, inner = isometry_channel(d, k_outer, seed), isometry_channel(d, k_inner, seed + 1)
        got = compose_channels(outer, inner).kraus_ops
        want = loop_compose(outer, inner)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, seeds)
    def test_choi(self, d, k, seed):
        ch = isometry_channel(d, k, seed)
        assert np.array_equal(choi_of_channel(ch).matrix, loop_choi(ch))

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, seeds)
    def test_completeness_residual(self, d, k, seed):
        ch = isometry_channel(d, k, seed)
        assert ch.completeness_residual() == loop_residual(ch)

    @PROPERTY
    @given(qubit_or_qutrit, kraus_counts, kraus_counts, seeds)
    def test_switch(self, d, k_a, k_b, seed):
        a, b = isometry_channel(d, k_a, seed), isometry_channel(d, k_b, seed + 1)
        # The switch of (b, a) is the other order of the same pairs.
        for x, y in ((a, b), (b, a)):
            switched = build_switch(x, y)
            want = loop_switch(x, y)
            assert len(switched.kraus) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(switched.kraus, want))
            assert switched.channel.completeness_residual() < 1e-9

    @PROPERTY
    @given(kraus_counts, seeds)
    def test_channel_wigner(self, k, seed):
        frame = build_frame(3)
        wig = wigner_of_channel(isometry_channel(3, k, seed), frame)
        assert np.array_equal(wig, loop_wigner(isometry_channel(3, k, seed), frame))
        assert np.abs(wig.sum(axis=0) - 1.0).max() < 1e-10


# ---------------------------------------------------------------------------
# One stack per channel, checked once
# ---------------------------------------------------------------------------

def residual_spy(monkeypatch):
    """Record the Kraus stack of every completeness-residual computation."""
    seen = []
    compute = channels._completeness_residual

    def spy(ops):
        seen.append(ops)
        return compute(ops)

    monkeypatch.setattr(channels, "_completeness_residual", spy)
    return seen


class TestCheckedOnce:
    def test_residual_computed_once_per_channel(self, monkeypatch):
        seen = residual_spy(monkeypatch)
        ch = qutrit_noisy_th_channel(0.3)
        build_switch(ch, ch)
        choi_of_channel(ch)
        wigner_of_channel(ch, build_frame(3))
        assert sum(ops is ch.kraus_ops for ops in seen) == 1

    def test_incomplete_channel_raises_everywhere(self):
        good = qutrit_noisy_th_channel(0.3)
        choi_of_channel(good)  # its residual is now known
        bad = KrausChannel(0.5 * good.kraus_ops)
        for use in (
            lambda: build_switch(bad, bad),
            lambda: build_switch(good, bad),
            lambda: choi_of_channel(bad),
            lambda: wigner_of_channel(bad, build_frame(3)),
        ):
            with pytest.raises(ChannelCompletenessError):
                use()

    def test_stack_is_read_only_copy(self):
        ops = np.stack([np.eye(2, dtype=complex)])
        ch = KrausChannel(ops)
        with pytest.raises(ValueError):
            ch.kraus_ops[0][0, 0] = 2.0
        ops[0, 0, 0] = 2.0  # the caller's array is not the channel's
        assert ch.kraus_ops[0, 0, 0] == 1.0

    def test_tuple_input_and_shape(self):
        ch = KrausChannel((np.eye(3), np.zeros((3, 3))))
        assert ch.kraus_ops.shape == (2, 3, 3) and ch.kraus_ops.dtype == complex
        assert (ch.d_out, ch.d_in) == (3, 3) and len(ch.kraus_ops) == 2
        assert [K.shape for K in ch.kraus_ops] == [(3, 3), (3, 3)]
        rect = KrausChannel((np.ones((2, 3)),))
        assert (rect.d_out, rect.d_in) == (2, 3)
        with pytest.raises(DimensionMismatchError):
            KrausChannel(np.eye(2))  # one matrix, not a stack of them
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(np.zeros((0, 2, 2)))

    def test_switch_holds_its_channel(self):
        ch = qutrit_noisy_th_channel(0.3)
        switched = build_switch(ch, ch)
        assert switched.kraus is switched.channel.kraus_ops
        assert switched.channel.validate() is switched.channel

    def test_plus_input_built_once_per_sweep(self, monkeypatch):
        # Control (qubit) and target (qutrit) inputs, each built once for
        # the process; a sweep then builds no |+> state at all.
        plus_density(2), plus_density(3)
        calls = []
        pure = channels.DensityOperator.pure.__func__

        def counting(cls, vec):
            calls.append(vec)
            return pure(cls, vec)

        monkeypatch.setattr(channels.DensityOperator, "pure", classmethod(counting))
        experiments.run_figs1(experiments.default_config("figs1", stop=0.05))
        assert calls == []
        assert plus_density(3) is plus_density(3)

    def test_joint_input_formed_once_per_target(self, monkeypatch):
        calls = []

        def counting(*ops):
            calls.append(len(ops))
            return tensor(*ops)

        monkeypatch.setattr(qswitch, "tensor", counting)
        qswitch._joint_input.cache_clear()
        experiments.run_figs1(experiments.default_config("figs1", stop=0.05))
        assert calls == [2]
