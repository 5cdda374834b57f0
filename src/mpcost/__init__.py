"""mpcost: cost-driven secret-sharing scheme assignment for two-party
secure computation circuits.

The package models a protocol as a DAG of word-level operations, prices
each (operation, scheme) pair and each scheme conversion with a cost
profile, and searches for the node-to-scheme assignment with the lowest
total monetary cost. Several heuristics and an exact solver for small
circuits are provided, together with bundled cloud-derived profiles and the
case-study circuit generators.

Importing the package loads only what ``mpcost optimize`` and ``mpcost
compare`` run: circuits, the cost model, the strategies and the bundled
profiles. The circuit generators (:mod:`mpcost.casegen`) and profile
derivation (:mod:`mpcost.derive`) load on first use of one of their
names here, such as ``mpcost.gen_matmul``, or on ``from mpcost import
*``.
"""

from .circuit import (
    COMPUTE_OPS,
    Circuit,
    Node,
    OpKind,
    build,
    circuit_from_json,
    circuit_to_json,
    evaluate_plaintext,
    load_circuit,
    save_circuit,
)
from .cost_model import (
    ARITHMETIC,
    BOOLEAN,
    YAO,
    Assignment,
    CostProfile,
    CostReport,
    NodeCost,
    Violation,
    assignment_from_json,
    assignment_to_json,
    check_feasible,
    load_profile,
    profile_from_json,
    profile_to_json,
    save_profile,
    total_cost,
)
from .optimizer import (
    OptimizeResult,
    SolverLimits,
    best_of,
    bottom_up,
    exhaustive_optimal,
    fixed_sharing,
    hill_climbing,
    top_down,
)
from .profiles import BUILTIN_PROFILES, builtin_names, load_builtin
from . import errors

__version__ = "0.1.0"

#: Names served from a module that loads on first use (see the docstring).
_LAZY = {
    **dict.fromkeys(
        ("BiometricSpec", "MatMulSpec", "biometric_inputs", "gen_biometric",
         "gen_chain", "gen_matmul", "gen_random", "matmul_inputs"),
        "casegen",
    ),
    **dict.fromkeys(
        ("PriceSpec", "RawMeasurement", "derive_profile", "load_measurements",
         "load_prices"),
        "derive",
    ),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "ARITHMETIC",
    "BOOLEAN",
    "YAO",
    "Assignment",
    "BUILTIN_PROFILES",
    "BiometricSpec",
    "COMPUTE_OPS",
    "Circuit",
    "CostProfile",
    "CostReport",
    "MatMulSpec",
    "Node",
    "NodeCost",
    "OpKind",
    "OptimizeResult",
    "PriceSpec",
    "RawMeasurement",
    "SolverLimits",
    "Violation",
    "assignment_from_json",
    "assignment_to_json",
    "best_of",
    "biometric_inputs",
    "bottom_up",
    "build",
    "builtin_names",
    "check_feasible",
    "circuit_from_json",
    "circuit_to_json",
    "derive_profile",
    "errors",
    "evaluate_plaintext",
    "exhaustive_optimal",
    "fixed_sharing",
    "gen_biometric",
    "gen_chain",
    "gen_matmul",
    "gen_random",
    "hill_climbing",
    "load_builtin",
    "load_circuit",
    "load_measurements",
    "load_prices",
    "load_profile",
    "matmul_inputs",
    "profile_from_json",
    "profile_to_json",
    "save_circuit",
    "save_profile",
    "top_down",
    "total_cost",
]
