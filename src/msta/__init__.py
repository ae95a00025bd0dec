"""Multi-qubit density operators in the correlated Pauli tensor algebra."""

from .algebra import (
    MAX_QUBITS,
    Multivector,
    PauliString,
    allclose,
    exp_i,
    single_letter_product,
)
from .states import (
    DensityOperator,
    ProductState,
    ProjectorSphere,
    Rotor,
    apply_rotor,
    bell,
    bloch_state,
    frame_for,
    ghz,
    local_rotor,
    product_state,
    projector_sphere,
    pure_state_from_amplitudes,
    pure_state_from_spheres,
    sphere_state,
    w_state,
)
from .entanglement import (
    ChshSetting,
    chsh_maximize,
    chsh_value,
    concurrence_2q,
    correlator,
    entanglement_entropy,
    measure_update,
    partial_trace,
    pure_2q_measures,
)
from .dynamics import (
    ExchangeHamiltonian,
    ProductEvolution,
    eigensystem_2q,
    evolve,
    hamiltonian,
    min_bloch_length,
    product_evolution,
    projector_decompose,
)
from .invariants import (
    InfeasibleInvariantsError,
    InvariantSet3Q,
    B_function,
    F_function,
    degenerate_limit,
    expansion_probabilities,
    feasibility,
    invariants_2q,
    invariants_3q,
    sudbery,
    three_tangle_oracle,
)
from .vectorsum import AngleSet, reconstruct, solve, special_state, vector_lengths

__version__ = "0.1.0"
