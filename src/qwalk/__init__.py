"""Amplitude-exact simulator for discrete-time coined quantum walks on 1D
and 2D lattices with position-dependent phase defects.

Subpackage map: :mod:`~qwalk.statespace` (walker states),
:mod:`~qwalk.coins` (coin operators), :mod:`~qwalk.evolution` (walk steps,
defects, step matrices), :mod:`~qwalk.isomorphism` (two 1D walkers vs one
2D walker), :mod:`~qwalk.analysis` (distributions and observables),
:mod:`~qwalk.cli` (the ``qwalk`` command).

The package loads lazily (PEP 562): ``import qwalk`` imports no submodule
and so no numpy, and each name below loads its submodule on first use.
That lets ``qwalk.cli`` choose how OpenBLAS starts before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.
_HOME = {name: module for module, names in {
    "analysis": "Distribution WalkSummary classical_rw_distribution distribution l1_distance "
                "marginal recurrence_probability summarize variance",
    "coins": "CoinField fractional_swap hadamard random_su2 su2_from_angles su4_compose tensor "
             "unitarity_check",
    "evolution": "DefectMap StepReport WalkSpec build_step_matrix evolve run_walk",
    "isomorphism": "BasisPermutation check_decomposition_claims check_translation_equivalence "
                   "coordinate_forward verify_isomorphism",
    "statespace": "SublatticeState WalkerState localized_state symmetric_coin",
}.items() for name in names.split()}
_SUBMODULES = {*_HOME.values(), "cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
