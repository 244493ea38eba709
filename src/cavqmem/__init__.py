"""Atomic quantum memory for photonic polarization qubits.

A single Lambda-type atom in a two-mode optical cavity scatters one photon
at a time.  Near the cavity resonance the scattering entangles the photon's
polarization with the atomic ground-state qubit, which turns the cavity into
a heralded memory: scatter, detect one polarization, and the photonic qubit
is mapped onto the atom.  A later scattering event releases it again.

The package computes the closed-form figures of merit of that protocol
(swap and memory fidelities, success probabilities, storage/retrieval
fidelity) averaged over Gaussian or Lorentzian pulse spectra, and carries an
independent state-vector simulation of the same protocol used to cross-check
every closed form.  All rates are measured in units of the atomic decay rate
(gamma = 1).
"""

from .errors import (
    CavqmemError,
    DegenerateDenominator,
    GammaZero,
    InvalidField,
    NegativeGamma,
    NonFiniteField,
    NonFiniteIntegrand,
    NonPositiveKappa,
    PrecisionLoss,
    UnequalCouplings,
    ZeroCoupling,
    ZeroProbability,
    ZeroScatteringWeight,
)
from .metrics import (
    SpectralMoments,
    cycle_closed_forms,
    qm_fidelity,
    spectral_moments,
    swap_fidelity_leading,
    swap_target_atom,
    transfer_fidelity,
)
from .params import (
    AtomQubit,
    PhotonQubit,
    Profile,
    PulseSpec,
    SystemParams,
    check_efficiency,
    cooperativity,
    point_from_dict,
    point_rows,
    point_to_dict,
    validate,
    validate_pulse,
)
from .scattering import (
    bright_phase_factor,
    coupling_amplitude,
    scattered_amplitude,
    t_elements,
)
from .spectral import (
    DEFAULT_QUAD,
    KGrid,
    QuadratureConfig,
    build_grid,
    quadrature_rule,
    spectral_average,
)
from .statesim import (
    Cavity,
    EntanglementOutcome,
    MemoryRecord,
    PhotonPair,
    entanglement_storage,
    run_memory_protocol,
    swap_transfer_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "AtomQubit",
    "Cavity",
    "CavqmemError",
    "DEFAULT_QUAD",
    "DegenerateDenominator",
    "EntanglementOutcome",
    "GammaZero",
    "InvalidField",
    "KGrid",
    "MemoryRecord",
    "NegativeGamma",
    "NonFiniteField",
    "NonFiniteIntegrand",
    "NonPositiveKappa",
    "PhotonPair",
    "PhotonQubit",
    "PrecisionLoss",
    "Profile",
    "PulseSpec",
    "QuadratureConfig",
    "SpectralMoments",
    "SystemParams",
    "UnequalCouplings",
    "ZeroCoupling",
    "ZeroProbability",
    "ZeroScatteringWeight",
    "bright_phase_factor",
    "build_grid",
    "check_efficiency",
    "cycle_closed_forms",
    "cooperativity",
    "coupling_amplitude",
    "entanglement_storage",
    "point_from_dict",
    "point_rows",
    "point_to_dict",
    "qm_fidelity",
    "quadrature_rule",
    "run_memory_protocol",
    "scattered_amplitude",
    "spectral_average",
    "spectral_moments",
    "swap_fidelity_leading",
    "swap_target_atom",
    "swap_transfer_fidelity",
    "t_elements",
    "transfer_fidelity",
    "validate",
    "validate_pulse",
]
