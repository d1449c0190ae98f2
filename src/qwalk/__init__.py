"""Amplitude-exact simulator for discrete-time coined quantum walks on 1D
and 2D lattices with position-dependent phase defects.

Subpackage map: :mod:`~qwalk.statespace` (walker states),
:mod:`~qwalk.coins` (coin operators), :mod:`~qwalk.evolution` (walk steps,
defects, step matrices), :mod:`~qwalk.isomorphism` (two 1D walkers vs one
2D walker), :mod:`~qwalk.analysis` (distributions and observables),
:mod:`~qwalk.cli` (the ``qwalk`` command).
"""

from .analysis import (
    Distribution,
    WalkSummary,
    classical_rw_distribution,
    distribution,
    l1_distance,
    marginal,
    recurrence_probability,
    summarize,
    variance,
)
from .coins import (
    CoinField,
    fractional_swap,
    hadamard,
    random_su2,
    su2_from_angles,
    su4_compose,
    tensor,
    unitarity_check,
)
from .evolution import (
    DefectMap,
    StepReport,
    WalkSpec,
    build_step_matrix,
    evolve,
    run_walk,
)
from .isomorphism import (
    BasisPermutation,
    check_decomposition_claims,
    check_translation_equivalence,
    coordinate_forward,
    verify_isomorphism,
)
from .statespace import (
    SublatticeState,
    WalkerState,
    localized_state,
    symmetric_coin,
)

__version__ = "0.1.0"

__all__ = [
    "BasisPermutation",
    "CoinField",
    "DefectMap",
    "Distribution",
    "StepReport",
    "SublatticeState",
    "WalkSpec",
    "WalkSummary",
    "WalkerState",
    "build_step_matrix",
    "check_decomposition_claims",
    "check_translation_equivalence",
    "classical_rw_distribution",
    "coordinate_forward",
    "distribution",
    "evolve",
    "fractional_swap",
    "hadamard",
    "l1_distance",
    "localized_state",
    "marginal",
    "random_su2",
    "recurrence_probability",
    "run_walk",
    "su2_from_angles",
    "su4_compose",
    "summarize",
    "symmetric_coin",
    "tensor",
    "unitarity_check",
    "variance",
    "verify_isomorphism",
]
