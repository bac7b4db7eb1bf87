"""magicswitch: coherent-order channel composition and magic monotones.

The package builds the composite channel obtained when a control qubit puts
a target system through two channels in a superposition of both orders,
and quantifies the non-stabilizerness of the resulting states and channels:
robustness monotones via exact linear programs over stabilizer atoms for
qubits, and discrete-Wigner mana for odd prime dimensions.

``import magicswitch`` loads no submodule.  Each public name binds on first
use (PEP 562): reading ``magicswitch.rom_state`` imports ``lp`` and what it
imports, and never the sweep layer (``experiments``, ``qswitch``) or the
CLI, so a process pays to compile only the layers it calls.  A submodule
name such as ``magicswitch.lp`` resolves the same way.
"""

import importlib.util

__version__ = "0.1.0"

# Public name -> the submodule that defines it; the one list of the API.
_HOMES = {
    "ChoiState": "channels",
    "DensityOperator": "channels",
    "KrausChannel": "channels",
    "apply_channel": "channels",
    "choi_of_channel": "channels",
    "compose_channels": "channels",
    "depolarizing_channel": "channels",
    "identity_channel": "channels",
    "measure_control": "channels",
    "noisy_th_channel": "channels",
    "orthogonal_unitary_basis": "channels",
    "qutrit_k2_variant_report": "channels",
    "qutrit_noisy_th_channel": "channels",
    "unitary_channel": "channels",
    "DEFAULT_TOL": "config",
    "Tolerances": "config",
    "SweepConfig": "experiments",
    "SweepRow": "experiments",
    "ThresholdResult": "experiments",
    "default_config": "experiments",
    "find_threshold": "experiments",
    "run_appendix_c": "experiments",
    "run_fig2": "experiments",
    "run_fig3": "experiments",
    "run_figs1": "experiments",
    "dagger": "linalg",
    "partial_trace": "linalg",
    "pauli_strings": "linalg",
    "tensor": "linalg",
    "L1Solution": "lp",
    "channel_robustness": "lp",
    "rom_state": "lp",
    "PhaseSpaceFrame": "phasespace",
    "build_frame": "phasespace",
    "mana_channel": "phasespace",
    "mana_state": "phasespace",
    "wigner_of_channel": "phasespace",
    "wigner_of_state": "phasespace",
    "EffectiveDepolarizingSwitch": "qswitch",
    "WeightedChannel": "qswitch",
    "build_switch": "qswitch",
    "conditional_outputs": "qswitch",
    "effective_t_channels": "qswitch",
    "ChoiAtom": "stabilizers",
    "StabilizerDictionary": "stabilizers",
    "cspo_choi_atoms": "stabilizers",
    "enumerate_stabilizer_states": "stabilizers",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name.isidentifier() and importlib.util.find_spec(f"{__name__}.{name}"):
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
