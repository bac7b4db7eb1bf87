"""magicswitch: coherent-order channel composition and magic monotones.

The package builds the composite channel obtained when a control qubit puts
a target system through two channels in a superposition of both orders,
and quantifies the non-stabilizerness of the resulting states and channels:
robustness monotones via exact linear programs over stabilizer atoms for
qubits, and discrete-Wigner mana for odd prime dimensions.
"""

__version__ = "0.1.0"

from .channels import (
    ChoiState,
    DensityOperator,
    KrausChannel,
    apply_channel,
    choi_of_channel,
    compose_channels,
    depolarizing_channel,
    identity_channel,
    measure_control,
    noisy_th_channel,
    orthogonal_unitary_basis,
    qutrit_k2_variant_report,
    qutrit_noisy_th_channel,
    unitary_channel,
)
from .config import DEFAULT_TOL, Tolerances
from .experiments import (
    SweepConfig,
    SweepRow,
    ThresholdResult,
    default_config,
    find_threshold,
    run_appendix_c,
    run_fig2,
    run_fig3,
    run_figs1,
)
from .linalg import dagger, partial_trace, pauli_strings, tensor
from .lp import (
    L1Solution,
    channel_robustness,
    rom_state,
)
from .phasespace import (
    PhaseSpaceFrame,
    build_frame,
    mana_channel,
    mana_state,
    wigner_of_channel,
    wigner_of_state,
)
from .qswitch import (
    EffectiveDepolarizingSwitch,
    WeightedChannel,
    build_switch,
    conditional_outputs,
    effective_t_channels,
)
from .stabilizers import (
    ChoiAtom,
    StabilizerDictionary,
    cspo_choi_atoms,
    enumerate_stabilizer_states,
)

__all__ = [
    "ChoiAtom",
    "ChoiState",
    "DEFAULT_TOL",
    "DensityOperator",
    "EffectiveDepolarizingSwitch",
    "KrausChannel",
    "L1Solution",
    "PhaseSpaceFrame",
    "StabilizerDictionary",
    "SweepConfig",
    "SweepRow",
    "ThresholdResult",
    "Tolerances",
    "WeightedChannel",
    "apply_channel",
    "build_frame",
    "build_switch",
    "channel_robustness",
    "choi_of_channel",
    "compose_channels",
    "conditional_outputs",
    "cspo_choi_atoms",
    "dagger",
    "default_config",
    "depolarizing_channel",
    "effective_t_channels",
    "enumerate_stabilizer_states",
    "find_threshold",
    "identity_channel",
    "mana_channel",
    "mana_state",
    "measure_control",
    "noisy_th_channel",
    "orthogonal_unitary_basis",
    "partial_trace",
    "pauli_strings",
    "qutrit_k2_variant_report",
    "qutrit_noisy_th_channel",
    "rom_state",
    "run_appendix_c",
    "run_fig2",
    "run_fig3",
    "run_figs1",
    "tensor",
    "unitary_channel",
    "wigner_of_state",
    "wigner_of_channel",
]
