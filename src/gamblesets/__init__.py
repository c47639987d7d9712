"""Exact decision engine for coherence and natural extension of sets of
desirable gamble sets over finite possibility spaces.

Every membership answer comes with a certificate that re-verifies by
substitution, and every decision path has an independent Fourier-Motzkin
oracle for differential testing.

Importing the package loads none of its modules. Each public name is imported
from its home module (the table below) when it is first read, and is then
bound here, so later reads are plain attribute lookups (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ratlp": (
        "EQ", "LEQ", "LT", "Infeasible", "LinearProgram", "Optimal",
        "Unbounded", "fm_feasible", "lp_solve", "rational", "rational_str",
        "verify_outcome",
    ),
    "gambles": (
        "DimensionMismatch", "Gamble", "PossibilitySpace", "gamble", "geq",
        "gt", "in_cone_geq0", "in_cone_gt0", "in_cone_wd0", "indicator", "scale",
        "wgeq", "zero",
    ),
    "cones": (
        "Certificate", "ConeGenerators", "certificate_valid",
        "certificate_valid_strict", "d_coherent", "desext_contains",
        "desext_contains_strict", "posi_contains", "zero_in_desext",
        "zero_in_desext_strict",
    ),
    "extension": (
        "Assessment", "CapExceeded", "Evidence", "ExtAnswer", "GambleSet",
        "InconsistentAssessment", "closure_holds", "ext_contains",
        "is_consistent", "verify_ext_answer",
    ),
    "axioms": (
        "DerivationTrace", "DominanceError", "KAddInstance", "TraceError",
        "addpair_derive", "dom_from_add_check", "verify_trace",
    ),
    "formulations": ("ext_contains_indicator", "ext_contains_split", "formulations_agree"),
    "representation": ("DFamilySpec", "FinGenD", "k_family_contains", "kd_contains"),
    "oracle": (
        "InstanceGenConfig", "brute_ext_contains", "default_space",
        "fm_desext_contains", "fm_desext_contains_strict", "fm_posi_contains",
        "fm_zero_in_desext", "gen_instance",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
